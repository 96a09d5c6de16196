package plan

import (
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// optimize runs the optimization pipeline: spreadsheet-specific rewrites
// first (they insert filters to push), then generic filter pushdown.
func optimize(n Node, opts *Options) (Node, error) {
	var err error
	n, err = optimizeSheets(n, opts)
	if err != nil {
		return nil, err
	}
	if !opts.Ablate.DisableFilterPushdown {
		n = pushFilters(n)
	}
	return n, nil
}

// pushFilters sinks Filter nodes toward scans, splits conjuncts across
// joins, and upgrades cross joins with equi-conjuncts into keyed joins.
func pushFilters(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		child := pushFilters(x.Input)
		return sinkFilter(x.Cond, child)
	case *Project:
		x.Input = pushFilters(x.Input)
	case *Join:
		x.L = pushFilters(x.L)
		x.R = pushFilters(x.R)
	case *GroupBy:
		x.Input = pushFilters(x.Input)
	case *Union:
		x.L = pushFilters(x.L)
		x.R = pushFilters(x.R)
	case *Distinct:
		x.Input = pushFilters(x.Input)
	case *Sort:
		x.Input = pushFilters(x.Input)
	case *Limit:
		x.Input = pushFilters(x.Input)
	case *Spreadsheet:
		x.Input = pushFilters(x.Input)
		for i := range x.RefPlans {
			x.RefPlans[i] = pushFilters(x.RefPlans[i])
		}
	case *Alias:
		x.Input = pushFilters(x.Input)
	}
	return n
}

// sinkFilter pushes cond as deep as possible into node, returning the
// rewritten tree.
func sinkFilter(cond sqlast.Expr, node Node) Node {
	var keep sqlast.Expr
	for _, conj := range conjuncts(cond) {
		pushed, rest := trySink(conj, node)
		node = pushed
		keep = andExpr(keep, rest)
	}
	if keep != nil {
		return &Filter{Input: node, Cond: keep}
	}
	return node
}

// trySink attempts to push one conjunct into node. It returns the possibly
// rewritten node and the residual predicate (nil when fully absorbed).
func trySink(conj sqlast.Expr, node Node) (Node, sqlast.Expr) {
	switch x := node.(type) {
	case *Scan:
		if refsResolveIn(conj, x.Schema()) {
			x.Filter = andExpr(x.Filter, conj)
			return x, nil
		}
	case *CTERef:
		if refsResolveIn(conj, x.Schema()) {
			x.Filter = andExpr(x.Filter, conj)
			return x, nil
		}
	case *Filter:
		inner, rest := trySink(conj, x.Input)
		x.Input = inner
		return x, rest
	case *Project:
		if sub, ok := substituteThroughProject(conj, x); ok {
			x.Input = sinkFilter(sub, x.Input)
			return x, nil
		}
	case *Alias:
		if sub, ok := remapByOrdinal(conj, x.Schema(), x.Input.Schema()); ok {
			x.Input = sinkFilter(sub, x.Input)
			return x, nil
		}
	case *Limit:
		// Filters do not commute with LIMIT.
	case *GroupBy:
		// Only key-referencing conjuncts commute with aggregation.
		if sub, ok := substituteGroupKeys(conj, x); ok {
			x.Input = sinkFilter(sub, x.Input)
			return x, nil
		}
	case *Sort:
		inner, rest := trySink(conj, x.Input)
		x.Input = inner
		return x, rest
	case *Distinct:
		inner, rest := trySink(conj, x.Input)
		x.Input = inner
		return x, rest
	case *Join:
		return sinkIntoJoin(conj, x)
	}
	return node, conj
}

// sinkIntoJoin routes one conjunct into a join: equi-conjuncts between the
// sides become join keys (inner/cross), single-side conjuncts push to the
// preserved side(s).
func sinkIntoJoin(conj sqlast.Expr, j *Join) (Node, sqlast.Expr) {
	inner := j.Type == sqlast.JoinInner || j.Type == sqlast.JoinCross
	if inner {
		if eq, ok := conj.(*sqlast.Binary); ok && eq.Op == "=" {
			switch {
			case resolvesIn(eq.L, j.L.Schema()) && resolvesIn(eq.R, j.R.Schema()):
				j.LeftKeys = append(j.LeftKeys, eq.L)
				j.RightKeys = append(j.RightKeys, eq.R)
				if j.Type == sqlast.JoinCross {
					j.Type = sqlast.JoinInner
				}
				return j, nil
			case resolvesIn(eq.L, j.R.Schema()) && resolvesIn(eq.R, j.L.Schema()):
				j.LeftKeys = append(j.LeftKeys, eq.R)
				j.RightKeys = append(j.RightKeys, eq.L)
				if j.Type == sqlast.JoinCross {
					j.Type = sqlast.JoinInner
				}
				return j, nil
			}
		}
	}
	canLeft := inner || j.Type == sqlast.JoinLeft
	canRight := inner || j.Type == sqlast.JoinRight
	if canLeft && refsResolveIn(conj, j.L.Schema()) {
		j.L = sinkFilter(conj, j.L)
		return j, nil
	}
	if canRight && refsResolveIn(conj, j.R.Schema()) {
		j.R = sinkFilter(conj, j.R)
		return j, nil
	}
	return j, conj
}

// refsResolveIn reports whether every column reference of e resolves in s
// and e contains at least one reference (pure literals stay put).
func refsResolveIn(e sqlast.Expr, s interface {
	Resolve(table, name string) (int, bool, error)
}) bool {
	refs := sqlast.ColumnRefs(e)
	if len(refs) == 0 {
		return false
	}
	for _, c := range refs {
		_, found, err := s.Resolve(c.Table, c.Name)
		if err != nil || !found {
			return false
		}
	}
	return true
}

// substituteThroughProject rewrites a predicate over project outputs into
// one over project inputs by inlining the defining expressions.
func substituteThroughProject(e sqlast.Expr, p *Project) (sqlast.Expr, bool) {
	ok := true
	out := sqlast.Transform(e, func(n sqlast.Expr) sqlast.Expr {
		c, isCol := n.(*sqlast.ColumnRef)
		if !isCol {
			return n
		}
		idx, found, err := p.Schema().Resolve(c.Table, c.Name)
		if err != nil || !found {
			ok = false
			return n
		}
		return p.Exprs[idx]
	})
	if !ok {
		return nil, false
	}
	// Don't duplicate subquery executions below.
	if sqlast.HasSubquery(out) && !sqlast.HasSubquery(e) {
		return nil, false
	}
	return out, true
}

// substituteGroupKeys rewrites a predicate over GroupBy outputs into one
// over its input when it references only grouping keys.
func substituteGroupKeys(e sqlast.Expr, g *GroupBy) (sqlast.Expr, bool) {
	ok := true
	out := sqlast.Transform(e, func(n sqlast.Expr) sqlast.Expr {
		c, isCol := n.(*sqlast.ColumnRef)
		if !isCol {
			return n
		}
		idx, found, err := g.Schema().Resolve(c.Table, c.Name)
		if err != nil || !found || idx >= len(g.Keys) {
			ok = false
			return n
		}
		return g.Keys[idx]
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// remapByOrdinal translates column references positionally between two
// equal-arity schemas (alias nodes re-qualify without reordering).
func remapByOrdinal(e sqlast.Expr, from, to *eval.BoundSchema) (sqlast.Expr, bool) {
	ok := true
	out := sqlast.Transform(e, func(n sqlast.Expr) sqlast.Expr {
		c, isCol := n.(*sqlast.ColumnRef)
		if !isCol {
			return n
		}
		idx, found, err := from.Resolve(c.Table, c.Name)
		if err != nil || !found || idx >= len(to.Cols) {
			ok = false
			return n
		}
		tc := to.Cols[idx]
		return &sqlast.ColumnRef{Table: tc.Table, Name: tc.Name}
	})
	if !ok {
		return nil, false
	}
	return out, true
}
