package exec

import (
	"fmt"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/mvcc"
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

// dmlTable resolves the base table an UPDATE or DELETE rewrites.
func (ex *Executor) dmlTable(name string) (*catalog.Table, error) {
	t, ok := ex.Cat.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", name)
	}
	if _, isMV := ex.Cat.MatViewDef(name); isMV {
		return nil, fmt.Errorf("%q is a materialized view; use REFRESH", name)
	}
	return t, nil
}

// matchRows returns the ascending positions in t.Rows that satisfy where
// (every position when where is nil), and the image those positions also
// index — t's published image when it is t's current state, else nil. Like a
// scan's filter, the predicate runs as a selection kernel over that image's
// columnar form when it compiles to one (byKernel); a predicate with no
// kernel, a table changed since its last Publish and
// core.Ablation.DisableVectorizedExec keep the per-row closure.
func (ex *Executor) matchRows(t *catalog.Table, bs *eval.BoundSchema, where sqlast.Expr) (pos []int32, base *mvcc.Image, byKernel bool, err error) {
	if im := ex.image(t); im.Covers(t.Version.Load(), t.Rows) {
		base = im
	}
	if where == nil {
		pos = make([]int32, len(t.Rows))
		for i := range pos {
			pos[i] = int32(i)
		}
		return pos, base, false, nil
	}
	if base != nil && !ex.Opts.Engine.DisableVectorizedExec {
		if k := eval.CompileSelKernel(bs, where); k.Valid() {
			src := &Result{Rows: base.Rows, Img: base.Columnar()}
			if vecRunnable(src, k) {
				res, err := ex.vecFilter(src, k, nil)
				if err != nil {
					return nil, nil, true, err
				}
				return res.RowIdx, base, true, nil
			}
		}
	}
	ctx := ex.ctx(bs, nil, nil)
	whereC := eval.Compile(bs, where)
	for i, row := range t.Rows {
		ctx.Binding.Row = row
		match, err := whereC.EvalBool(ctx)
		if err != nil {
			return nil, nil, false, err
		}
		if match {
			pos = append(pos, int32(i))
		}
	}
	return pos, base, false, nil
}

// roomLike returns an empty row slice with room for n rows plus as much spare
// capacity as old has: the slice an UPDATE or DELETE installs can take the
// inserts that follow in place, as the one it replaces could.
func roomLike(old []types.Row, n int) []types.Row {
	return make([]types.Row, 0, n+cap(old)-len(old))
}

// execDelete removes rows matching the predicate, copy-on-write: the kept
// rows go to a new slice. A DELETE that matches nothing leaves the table, its
// version and its image as they are.
func (ex *Executor) execDelete(st *sqlast.DeleteStmt) (*Result, error) {
	t, err := ex.dmlTable(st.Table)
	if err != nil {
		return nil, err
	}
	pos, base, _, err := ex.matchRows(t, eval.FromSchema(t.Schema), st.Where)
	if err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		return rowCountResult(0), nil
	}
	n := len(t.Rows) - len(pos)
	d := &mvcc.Delta{From: base, Rows: roomLike(t.Rows, n)}
	if base != nil { // else nothing can be derived from the positions
		d.Kept = make([]int32, 0, n)
	}
	drop := pos
	for i, row := range t.Rows {
		if len(drop) > 0 && drop[0] == int32(i) {
			drop = drop[1:]
			continue
		}
		d.Rows = append(d.Rows, row)
		if base != nil {
			d.Kept = append(d.Kept, int32(i))
		}
	}
	t.Replace(d)
	return rowCountResult(len(pos)), nil
}

// execUpdate rewrites matching rows copy-on-write: updated rows are cloned
// and the whole row slice is replaced, never written in place, so snapshot
// readers pinned to the previous image keep a frozen row set (and a failing
// UPDATE leaves the table untouched, as does one that matches nothing).
func (ex *Executor) execUpdate(st *sqlast.UpdateStmt) (*Result, error) {
	t, err := ex.dmlTable(st.Table)
	if err != nil {
		return nil, err
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
	pos, base, _, err := ex.matchRows(t, bs, st.Where)
	if err != nil {
		return nil, err
	}
	if len(pos) == 0 {
		return rowCountResult(0), nil
	}
	ctx := ex.ctx(bs, nil, nil)
	exprsC := eval.CompileMany(bs, st.Exprs)
	next := append(roomLike(t.Rows, len(t.Rows)), t.Rows...)
	for _, p := range pos {
		ctx.Binding.Row = t.Rows[p]
		nr := t.Rows[p].Clone()
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
		next[p] = nr
	}
	t.Replace(&mvcc.Delta{From: base, Rows: next, Patched: pos, Cols: idx})
	return rowCountResult(len(pos)), nil
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
	// Every row is computed before any is stored, and Insert stores all or
	// none: a failing row k of n leaves the table as it was.
	rows := make([]types.Row, 0, len(ins.Rows))
	place := func(vals types.Row) {
		row := make(types.Row, t.Schema.Len())
		for i, v := range vals {
			row[colIdx[i]] = v
		}
		rows = append(rows, row)
	}
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
			place(row)
		}
	} else {
		ctx := &eval.Context{Subquery: &runner{ex: ex}}
		vals := make(types.Row, len(colIdx))
		for _, exprRow := range ins.Rows {
			if len(exprRow) != len(colIdx) {
				return nil, fmt.Errorf("INSERT expects %d values, got %d", len(colIdx), len(exprRow))
			}
			for i, e := range exprRow {
				v, err := eval.Compile(nil, e).Eval(ctx)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			place(vals)
		}
	}
	if err := t.Insert(rows...); err != nil {
		return nil, err
	}
	return rowCountResult(len(rows)), nil
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
