package plan

import (
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// columnKinds returns the static kind of each of n's output columns
// (eval.StaticKind's lattice): a stored column's is the catalog's, a
// computed one's (a window function's included) is its expression's over
// its input's kinds, a scalar subquery's is its plan's one column's, and a
// column no rule here covers is eval.KindUnseen.
func (b *builder) columnKinds(n Node) []types.Kind {
	width := len(n.Schema().Cols)
	out := make([]types.Kind, width)
	switch x := n.(type) {
	case *Scan:
		// An untyped column (NULL) takes its kind from its first non-NULL
		// insert, which may come after this plan: unseen.
		cols := x.Table.ReadSchema().Cols
		for i := range out {
			out[i] = eval.KindUnseen
			if i < len(cols) && cols[i].Kind != types.KindNull {
				out[i] = cols[i].Kind
			}
		}
		return out
	case *CTERef:
		return fit(b.columnKinds(x.Def.Plan), width)
	case *Filter, *Distinct, *Sort, *Limit, *Alias:
		return fit(b.columnKinds(*n.Inputs()[0]), width)
	case *Window:
		in, env := b.columnKinds(x.Input), b.kindEnv(x.Input)
		for _, sp := range x.Specs {
			k, err := eval.StaticKind(sp.Fn, env)
			if err != nil {
				k = eval.KindUnseen
			}
			in = append(in, k)
		}
		return fit(in, width)
	case *Project:
		env := b.kindEnv(x.Input)
		for i, e := range x.Exprs {
			k, err := eval.StaticKind(e, env)
			if err != nil {
				k = eval.KindUnseen
			}
			out[i] = k
		}
		return out
	case *Join:
		return fit(append(b.columnKinds(x.L), b.columnKinds(x.R)...), width)
	case *GroupBy:
		env := b.kindEnv(x.Input)
		exprs := append([]sqlast.Expr{}, x.Keys...)
		for _, a := range x.Aggs {
			exprs = append(exprs, a.Call)
		}
		for i, e := range exprs {
			if i >= width {
				break
			}
			k, err := eval.StaticKind(e, env)
			if err != nil {
				k = eval.KindUnseen
			}
			out[i] = k
		}
		return out
	case *Union:
		l, r := b.columnKinds(x.L), b.columnKinds(x.R)
		for i := range out {
			out[i] = eval.KindUnseen
			if i < len(l) && i < len(r) {
				if k, ok := eval.UnionKind(l[i], r[i]); ok {
					out[i] = k
				}
			}
		}
		return out
	case *Spreadsheet:
		return fit(x.Model.Kinds()[x.DropCols:], width)
	}
	for i := range out {
		out[i] = eval.KindUnseen
	}
	return out
}

// fit returns ks as exactly width kinds, unseen past its end.
func fit(ks []types.Kind, width int) []types.Kind {
	out := make([]types.Kind, width)
	for i := range out {
		out[i] = eval.KindUnseen
		if i < len(ks) {
			out[i] = ks[i]
		}
	}
	return out
}

// kindEnv resolves column references against in's output columns and
// their static kinds; a reference in resolves to no column of is unseen (an
// outer one).
func (b *builder) kindEnv(in Node) *eval.KindEnv {
	schema, kinds := in.Schema(), b.columnKinds(in)
	return &eval.KindEnv{Col: func(c *sqlast.ColumnRef) types.Kind {
		if i, ok, err := schema.Resolve(c.Table, c.Name); ok && err == nil {
			return kinds[i]
		}
		return eval.KindUnseen
	}, Sub: b.subKind}
}

// subKind is a scalar subquery's static kind: its plan's one column's,
// unseen when it does not plan to one column (it fails when it runs).
func (b *builder) subKind(sub *sqlast.SelectStmt) types.Kind {
	n, err := b.buildStmt(sub)
	if err != nil || len(n.Schema().Cols) != 1 {
		return eval.KindUnseen
	}
	return b.columnKinds(n)[0]
}
