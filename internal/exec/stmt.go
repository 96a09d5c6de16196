package exec

import (
	"fmt"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// ExecStatement runs one parsed statement. DDL/DML return a nil-schema
// result with an affected-row count in Rows[0][0] style; queries return
// their relation.
func (ex *Executor) ExecStatement(stmt sqlast.Statement) (*Result, error) {
	switch x := stmt.(type) {
	case *sqlast.SelectStmt:
		p, err := plan.Build(ex.Cat, x, ex.planOpts())
		if err != nil {
			return nil, err
		}
		return ex.Execute(p, nil)
	case *sqlast.CreateTable:
		if _, err := ex.Cat.Create(x.Name, types.NewSchema(x.Cols...)); err != nil {
			return nil, err
		}
		return &Result{Schema: eval.NewBoundSchema(nil)}, nil
	case *sqlast.InsertStmt:
		return ex.execInsert(x)
	case *sqlast.CreateView:
		return ex.execCreateView(x)
	case *sqlast.RefreshStmt:
		return ex.execRefresh(x)
	case *sqlast.DropStmt:
		return ex.execDrop(x)
	case *sqlast.DeleteStmt:
		return ex.execDelete(x)
	case *sqlast.UpdateStmt:
		return ex.execUpdate(x)
	}
	return nil, fmt.Errorf("unsupported statement %T", stmt)
}

// execDelete removes rows matching the predicate.
func (ex *Executor) execDelete(st *sqlast.DeleteStmt) (*Result, error) {
	t, ok := ex.Cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", st.Table)
	}
	if _, isMV := ex.Cat.MatViewDef(st.Table); isMV {
		return nil, fmt.Errorf("%q is a materialized view; use REFRESH", st.Table)
	}
	bs := eval.FromSchema(t.Schema)
	ctx := ex.ctx(bs, nil, nil)
	whereC := eval.Compile(bs, st.Where)
	kept := t.Rows[:0:0]
	n := 0
	for _, row := range t.Rows {
		keep := true
		if st.Where != nil {
			ctx.Binding.Row = row
			match, err := whereC.EvalBool(ctx)
			if err != nil {
				return nil, err
			}
			keep = !match
		} else {
			keep = false
		}
		if keep {
			kept = append(kept, row)
		} else {
			n++
		}
	}
	t.Rows = kept
	if n > 0 {
		t.Version.Add(1)
	}
	return rowCountResult(n), nil
}

// execUpdate rewrites matching rows copy-on-write: updated rows are cloned
// and the whole row slice is replaced, never written in place, so snapshot
// readers pinned to the previous image keep a frozen row set (and a failing
// UPDATE leaves the table untouched).
func (ex *Executor) execUpdate(st *sqlast.UpdateStmt) (*Result, error) {
	t, ok := ex.Cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", st.Table)
	}
	if _, isMV := ex.Cat.MatViewDef(st.Table); isMV {
		return nil, fmt.Errorf("%q is a materialized view; use REFRESH", st.Table)
	}
	idx := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		j := t.Schema.Lookup(c)
		if j < 0 {
			return nil, fmt.Errorf("table %q has no column %q", st.Table, c)
		}
		idx[i] = j
	}
	bs := eval.FromSchema(t.Schema)
	ctx := ex.ctx(bs, nil, nil)
	whereC := eval.Compile(bs, st.Where)
	exprsC := eval.CompileMany(bs, st.Exprs)
	n := 0
	next := make([]types.Row, len(t.Rows))
	for ri, row := range t.Rows {
		next[ri] = row
		if st.Where != nil {
			ctx.Binding.Row = row
			match, err := whereC.EvalBool(ctx)
			if err != nil {
				return nil, err
			}
			if !match {
				continue
			}
		}
		ctx.Binding.Row = row
		nr := row.Clone()
		for i, c := range exprsC {
			v, err := c.Eval(ctx)
			if err != nil {
				return nil, err
			}
			cv, err := catalog.Coerce(v, t.Schema.Cols[idx[i]].Kind)
			if err != nil {
				return nil, err
			}
			nr[idx[i]] = cv
		}
		next[ri] = nr
		n++
	}
	if n > 0 {
		t.Rows = next
		t.Version.Add(1)
	}
	return rowCountResult(n), nil
}

func rowCountResult(n int) *Result {
	return &Result{Schema: eval.NewBoundSchema([]eval.BoundCol{{Name: "rows"}}),
		Rows: []types.Row{{types.NewInt(int64(n))}}}
}

func (ex *Executor) execInsert(ins *sqlast.InsertStmt) (*Result, error) {
	t, ok := ex.Cat.Get(ins.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", ins.Table)
	}
	colIdx, err := insertColumns(t, ins.Cols)
	if err != nil {
		return nil, err
	}
	insertRow := func(vals types.Row) error {
		row := make(types.Row, t.Schema.Len())
		for i, v := range vals {
			row[colIdx[i]] = v
		}
		return t.Insert(row)
	}
	n := 0
	if ins.Query != nil {
		p, err := plan.Build(ex.Cat, ins.Query, ex.planOpts())
		if err != nil {
			return nil, err
		}
		res, err := ex.Execute(p, nil)
		if err != nil {
			return nil, err
		}
		if len(res.Schema.Cols) != len(colIdx) {
			return nil, fmt.Errorf("INSERT expects %d columns, query returns %d", len(colIdx), len(res.Schema.Cols))
		}
		for _, row := range res.Rows {
			if err := insertRow(row); err != nil {
				return nil, err
			}
			n++
		}
	} else {
		ctx := &eval.Context{Subquery: &runner{ex: ex}}
		for _, exprRow := range ins.Rows {
			if len(exprRow) != len(colIdx) {
				return nil, fmt.Errorf("INSERT expects %d values, got %d", len(colIdx), len(exprRow))
			}
			vals := make(types.Row, len(exprRow))
			for i, e := range exprRow {
				v, err := eval.Compile(nil, e).Eval(ctx)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			if err := insertRow(vals); err != nil {
				return nil, err
			}
			n++
		}
	}
	return &Result{Schema: eval.NewBoundSchema([]eval.BoundCol{{Name: "rows"}}),
		Rows: []types.Row{{types.NewInt(int64(n))}}}, nil
}

func insertColumns(t *catalog.Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		idx := make([]int, t.Schema.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := t.Schema.Lookup(c)
		if j < 0 {
			return nil, fmt.Errorf("table %q has no column %q", t.Name, c)
		}
		idx[i] = j
	}
	return idx, nil
}
