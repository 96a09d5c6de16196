package plan

import (
	"fmt"

	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// buildSpreadsheet plans a spreadsheet clause over the query block's input:
// reference-sheet subplans, the working projection (PBY ++ DBY ++ MEA), the
// compiled model, and — when enabled — independent-dimension promotion into
// the distribution key for parallel execution (S3/S4).
func (b *builder) buildSpreadsheet(sc *sqlast.SpreadsheetClause, input Node) (*Spreadsheet, error) {
	refPlans, refMetas, err := b.buildRefSheets(sc)
	if err != nil {
		return nil, err
	}

	var work []workCol
	env := b.kindEnv(input)
	addClassified := func(exprs []sqlast.Expr, what string) error {
		for _, e := range exprs {
			if err := checkResolvable(e, input.Schema()); err != nil {
				return fmt.Errorf("%s: %v", what, err)
			}
			name := e.String()
			if c, ok := e.(*sqlast.ColumnRef); ok {
				name = c.Name
			}
			work = append(work, workCol{expr: e, name: name, kind: keyKind(e, env)})
		}
		return nil
	}
	if err := addClassified(sc.PBY, "PBY"); err != nil {
		return nil, err
	}
	if err := addClassified(sc.DBY, "DBY"); err != nil {
		return nil, err
	}
	for _, mi := range sc.MEA {
		name := mi.Name()
		expr := mi.Expr
		if c, ok := expr.(*sqlast.ColumnRef); ok {
			if _, found, _ := input.Schema().Resolve(c.Table, c.Name); !found {
				// A bare unresolvable name declares a new NULL measure
				// (r_yago in query S1).
				expr = &sqlast.Literal{Val: types.Null}
			}
		} else if err := checkResolvable(expr, input.Schema()); err != nil {
			return nil, fmt.Errorf("MEA %s: %v", name, err)
		}
		kind, err := eval.StaticKind(expr, env)
		if err != nil {
			return nil, core.KindConflict(name, err)
		}
		work = append(work, workCol{expr: expr, name: name, kind: kind})
	}

	// Independent-dimension promotion (S4): duplicate one independent DBY
	// dimension in front of the (empty) PBY list so partition-parallelism
	// has something to distribute on.
	promote := -1
	clause := sc
	if b.opts.Parallel > 1 && b.opts.PromoteIndependentDims && len(sc.PBY) == 0 {
		// Compile a probe model to run the independence analysis.
		probe, err := core.Compile(sc, workSchemaOf(work), refMetas, b.subKind)
		if err != nil {
			return nil, err
		}
		for d, ind := range probe.IndependentDims() {
			if ind {
				promote = d
				break
			}
		}
		if promote >= 0 {
			dup := workCol{expr: work[len(sc.PBY)+promote].expr, name: "$dup"}
			work = append([]workCol{dup}, work...)
			cl := *sc
			cl.PBY = append([]sqlast.Expr{&sqlast.ColumnRef{Name: "$dup"}}, sc.PBY...)
			clause = &cl
		}
	}

	model, err := core.Compile(clause, workSchemaOf(work), refMetas, b.subKind)
	if err != nil {
		return nil, err
	}
	exprs := make([]sqlast.Expr, len(work))
	cols := make([]eval.BoundCol, len(work))
	for i, wc := range work {
		exprs[i], cols[i] = wc.expr, eval.BoundCol{Name: wc.name}
	}
	workProj := &Project{Input: input, Exprs: exprs, schema: eval.NewBoundSchema(cols)}
	sheet := &Spreadsheet{Input: workProj, Model: model, RefPlans: refPlans}
	// Annotate only for an explicitly configured worker count (Workers=0
	// resolves to the core count at run time, which would make EXPLAIN
	// output machine-dependent).
	if b.opts.Workers > 1 {
		sheet.Notes = append(sheet.Notes,
			fmt.Sprintf("parallel partition build (%d workers)", b.opts.Workers))
	}
	if promote >= 0 {
		sheet.Promoted = []core.PromotedDim{{Pby: 0, Dby: promote}}
		sheet.Notes = append(sheet.Notes,
			fmt.Sprintf("promoted independent dimension %q into the distribution key", model.DimName(promote)))
	}
	drop := 0
	if promote >= 0 {
		drop = 1
	}
	sheet.schema = eval.NewBoundSchema(cols[drop:])
	sheet.DropCols = drop
	return sheet, nil
}

// workCol is one column of the spreadsheet working projection.
type workCol struct {
	expr sqlast.Expr
	name string
	kind types.Kind // static (eval.StaticKind)
}

// workSchemaOf is the working schema with each column's static kind.
func workSchemaOf(work []workCol) *types.Schema {
	cols := make([]types.Column, len(work))
	for i, wc := range work {
		cols[i] = types.Column{Name: wc.name, Kind: wc.kind}
	}
	return types.NewSchema(cols...)
}

// keyKind is a PBY or DBY expression's static kind; a key whose values mix
// kinds is keyed as it is, so a conflict makes it unseen.
func keyKind(e sqlast.Expr, env *eval.KindEnv) types.Kind {
	k, err := eval.StaticKind(e, env)
	if err != nil {
		return eval.KindUnseen
	}
	return k
}

// buildRefSheets plans each REFERENCE subquery and normalizes its output to
// the dims ++ measures layout RefMeta expects.
func (b *builder) buildRefSheets(sc *sqlast.SpreadsheetClause) ([]Node, []*core.RefMeta, error) {
	var plans []Node
	var metas []*core.RefMeta
	for i, rs := range sc.Refs {
		name := rs.Name
		if name == "" {
			name = fmt.Sprintf("ref_%d", i+1)
		}
		sub, err := b.buildStmt(rs.Query)
		if err != nil {
			return nil, nil, fmt.Errorf("REFERENCE %s: %v", name, err)
		}
		var exprs []sqlast.Expr
		var dims, meas []string
		for _, e := range rs.DBY {
			if err := checkResolvable(e, sub.Schema()); err != nil {
				return nil, nil, fmt.Errorf("REFERENCE %s DBY: %v", name, err)
			}
			n := e.String()
			if c, ok := e.(*sqlast.ColumnRef); ok {
				n = c.Name
			}
			exprs = append(exprs, e)
			dims = append(dims, n)
		}
		for _, mi := range rs.MEA {
			if err := checkResolvable(mi.Expr, sub.Schema()); err != nil {
				return nil, nil, fmt.Errorf("REFERENCE %s MEA: %v", name, err)
			}
			exprs = append(exprs, mi.Expr)
			meas = append(meas, mi.Name())
		}
		cols := make([]eval.BoundCol, 0, len(exprs))
		for _, n := range append(append([]string{}, dims...), meas...) {
			cols = append(cols, eval.BoundCol{Name: n})
		}
		proj := &Project{Input: sub, Exprs: exprs, schema: eval.NewBoundSchema(cols)}
		typed := make([]types.Column, len(cols))
		for i, k := range b.columnKinds(proj) {
			typed[i] = types.Column{Name: cols[i].Name, Kind: k}
		}
		plans = append(plans, proj)
		metas = append(metas, &core.RefMeta{Name: name, Src: rs, Dims: dims, Meas: meas, Schema: types.NewSchema(typed...)})
	}
	return plans, metas, nil
}
