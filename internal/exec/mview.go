package exec

import (
	"fmt"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file implements the paper's §7 "Materialized Views" direction: a
// spreadsheet query stored in a materialized view, with incremental refresh
// propagating detail-data changes through the formulas. Incremental refresh
// exploits the clause's own structure: partitions are independent, so when
// the (append-only) fact table grows, only the PBY partitions containing new
// rows are recomputed — the engine's predicate pushing then prunes
// everything else.

func (ex *Executor) execCreateView(cv *sqlast.CreateView) (*Result, error) {
	if !cv.Materialized {
		if !cv.Force { // validate the definition by planning it once
			if _, err := plan.Build(ex.Cat, cv.Query, ex.planOpts()); err != nil {
				return nil, fmt.Errorf("view %s: %v", cv.Name, err)
			}
		}
		if _, err := ex.Cat.CreateView(cv.Name, cv.Query); err != nil {
			return nil, err
		}
		return &Result{Schema: eval.NewBoundSchema(nil)}, nil
	}
	mv := &catalog.MatView{Name: cv.Name, Query: cv.Query, DefSQL: sqlast.FormatStatement(cv.Query)}
	if t, ok := ex.Cat.Get(cv.Name); cv.Force && ok {
		// Adopt the table as it stands. No watermarks: nothing says how fresh
		// its rows are, so the first REFRESH recomputes them.
		mv.Table = t
	} else {
		res, err := ex.runStmt(cv.Query)
		if err != nil {
			return nil, fmt.Errorf("materialized view %s: %v", cv.Name, err)
		}
		cols := make([]types.Column, len(res.Schema.Cols))
		for i, c := range res.Schema.Cols {
			cols[i] = types.Column{Name: c.Name}
		}
		mv.Table = &catalog.Table{Schema: types.NewSchema(cols...), Rows: res.Rows}
		mv.Watermarks, mv.Versions = ex.snapshotWatermarks(cv.Query)
	}
	mv.MainSource, mv.PbyCols = ex.analyzeIncremental(cv.Query)
	if err := ex.Cat.CreateMatView(mv); err != nil {
		return nil, err
	}
	return &Result{Schema: eval.NewBoundSchema([]eval.BoundCol{{Name: "rows"}}),
		Rows: []types.Row{{types.NewInt(int64(len(mv.Table.Rows)))}}}, nil
}

func (ex *Executor) runStmt(stmt *sqlast.SelectStmt) (*Result, error) {
	p, err := plan.Build(ex.Cat, stmt, ex.planOpts())
	if err != nil {
		return nil, err
	}
	return ex.Execute(p, nil)
}

func (ex *Executor) execDrop(st *sqlast.DropStmt) (*Result, error) {
	if !ex.Cat.DropObject(st.Name) {
		return nil, fmt.Errorf("unknown table or view %q", st.Name)
	}
	return &Result{Schema: eval.NewBoundSchema(nil)}, nil
}

// execRefresh recomputes a materialized view: incrementally when only the
// main fact table grew, fully otherwise.
func (ex *Executor) execRefresh(st *sqlast.RefreshStmt) (*Result, error) {
	mv, ok := ex.Cat.MatViewDef(st.Name)
	if !ok {
		return nil, fmt.Errorf("unknown materialized view %q", st.Name)
	}
	mode, n, err := ex.refreshMatView(mv, st.Full)
	if err != nil {
		return nil, err
	}
	return &Result{
		Schema: eval.NewBoundSchema([]eval.BoundCol{{Name: "mode"}, {Name: "rows"}}),
		Rows:   []types.Row{{types.NewString(mode), types.NewInt(int64(n))}},
	}, nil
}

// refreshMatView returns the refresh mode used ("noop", "incremental",
// "full") and the number of rows (re)computed.
func (ex *Executor) refreshMatView(mv *catalog.MatView, forceFull bool) (string, int, error) {
	full := forceFull || mv.MainSource == "" || len(mv.PbyCols) == 0 || mv.Versions == nil
	if !full {
		// Any change to a secondary source (dimension tables, reference
		// sheets) invalidates partition-level reasoning.
		for name, ver := range mv.Versions {
			if name == mv.MainSource {
				continue
			}
			if t, ok := ex.Cat.Get(name); !ok || t.Version.Load() != ver {
				full = true
				break
			}
		}
	}
	main, ok := ex.Cat.Get(mv.MainSource)
	if !full && !ok {
		full = true
	}
	if !full {
		wm := mv.Watermarks[mv.MainSource]
		appended := len(main.Rows) - wm
		switch {
		case appended < 0,
			// Version must have advanced exactly once per appended row;
			// anything else means updates or deletes happened in between.
			main.Version.Load()-mv.Versions[mv.MainSource] != int64(appended):
			full = true
		case appended == 0:
			return "noop", 0, nil
		}
		if !full {
			n, err := ex.refreshIncremental(mv, main, wm)
			if err != nil {
				return "", 0, err
			}
			mv.Watermarks, mv.Versions = ex.snapshotWatermarks(mv.Query)
			return "incremental", n, nil
		}
	}
	res, err := ex.runStmt(mv.Query)
	if err != nil {
		return "", 0, err
	}
	if got, want := len(res.Schema.Cols), mv.Table.Schema.Len(); got != want { // an adopted table of another shape
		return "", 0, fmt.Errorf("materialized view %s: its query yields %d columns, its table has %d", mv.Name, got, want)
	}
	mv.Table.Rows = res.Rows
	// The backing table's contents changed without going through Insert;
	// bump its version so dependent caches invalidate.
	mv.Table.Version.Add(1)
	mv.Watermarks, mv.Versions = ex.snapshotWatermarks(mv.Query)
	return "full", len(res.Rows), nil
}

// refreshIncremental recomputes only the PBY partitions that received new
// fact rows since the watermark.
func (ex *Executor) refreshIncremental(mv *catalog.MatView, main *catalog.Table, wm int) (int, error) {
	// Distinct new values per PBY column.
	sets := make([]map[string]types.Value, len(mv.PbyCols))
	for i := range sets {
		sets[i] = map[string]types.Value{}
	}
	for _, row := range main.Rows[wm:] {
		for i, pb := range mv.PbyCols {
			v := row[pb.SourceCol]
			sets[i][types.Key(v)] = v
		}
	}
	// Membership predicate per PBY column (conjunction over-approximates
	// the changed partition set, which is sound: recomputation is
	// idempotent).
	var pred sqlast.Expr
	for i, pb := range mv.PbyCols {
		var list []sqlast.Expr
		for _, v := range sets[i] {
			list = append(list, &sqlast.Literal{Val: v})
		}
		var p sqlast.Expr
		if len(list) == 1 {
			p = &sqlast.Binary{Op: "=", L: &sqlast.ColumnRef{Name: pb.Name}, R: list[0]}
		} else {
			p = &sqlast.InList{X: &sqlast.ColumnRef{Name: pb.Name}, List: list}
		}
		pred = andAll(pred, p)
	}

	// Re-run the view's query restricted to the affected partitions. The
	// clone keeps the stored AST pristine.
	body := mv.Query.Query.(*sqlast.SelectBody)
	cl := *body
	cl.Where = andAll(body.Where, pred)
	stmt := &sqlast.SelectStmt{Query: &cl, OrderBy: mv.Query.OrderBy, Limit: mv.Query.Limit}
	res, err := ex.runStmt(stmt)
	if err != nil {
		return 0, err
	}

	// Replace the affected partitions' rows in the materialized table.
	affected := func(row types.Row) bool {
		for i, pb := range mv.PbyCols {
			if _, ok := sets[i][types.Key(row[pb.OutputCol])]; !ok {
				return false
			}
		}
		return true
	}
	keep := mv.Table.Rows[:0:0]
	for _, row := range mv.Table.Rows {
		if !affected(row) {
			keep = append(keep, row)
		}
	}
	mv.Table.Rows = append(keep, res.Rows...)
	// Not an append-only change (affected partitions were replaced): bump
	// the version so dependent caches invalidate.
	mv.Table.Version.Add(1)
	return len(res.Rows), nil
}

// analyzeIncremental decides whether a view definition supports
// partition-level incremental refresh: a single-table FROM under a
// spreadsheet whose PBY columns come straight from that table and appear in
// the output.
func (ex *Executor) analyzeIncremental(stmt *sqlast.SelectStmt) (string, []catalog.PbyBinding) {
	if len(stmt.With) > 0 {
		return "", nil
	}
	body, ok := stmt.Query.(*sqlast.SelectBody)
	if !ok || body.Spreadsheet == nil || len(body.Spreadsheet.PBY) == 0 {
		return "", nil
	}
	if len(body.From) != 1 {
		return "", nil
	}
	tn, ok := body.From[0].(*sqlast.TableName)
	if !ok {
		return "", nil
	}
	src, ok := ex.Cat.Get(tn.Name)
	if !ok {
		return "", nil
	}
	if _, isMV := ex.Cat.MatViewDef(tn.Name); isMV {
		return "", nil // layered MVs refresh fully
	}
	alias := tn.Alias
	if alias == "" {
		alias = tn.Name
	}
	// Output positions: explicit select items or a lone star.
	outOrdinal := func(name string) int {
		if len(body.Items) == 1 {
			if _, star := body.Items[0].Expr.(*sqlast.Star); star {
				// Star over a spreadsheet expands PBY ++ DBY ++ MEA.
				for i, e := range body.Spreadsheet.PBY {
					if c, ok := e.(*sqlast.ColumnRef); ok && c.Name == name {
						return i
					}
				}
				return -1
			}
		}
		for i, item := range body.Items {
			c, ok := item.Expr.(*sqlast.ColumnRef)
			if !ok || c.Name != name {
				continue
			}
			if item.Alias != "" && item.Alias != name {
				continue
			}
			return i
		}
		return -1
	}
	var binds []catalog.PbyBinding
	for _, e := range body.Spreadsheet.PBY {
		c, ok := e.(*sqlast.ColumnRef)
		if !ok || (c.Table != "" && c.Table != alias) {
			return "", nil
		}
		srcCol := src.Schema.Lookup(c.Name)
		out := outOrdinal(c.Name)
		if srcCol < 0 || out < 0 {
			return "", nil
		}
		binds = append(binds, catalog.PbyBinding{Name: c.Name, SourceCol: srcCol, OutputCol: out})
	}
	return src.Name, binds
}

// snapshotWatermarks records the current row count and mutation version of
// every base table the statement reads, in any clause (views expand; unknown
// names are skipped — they will force a full refresh when they appear later).
func (ex *Executor) snapshotWatermarks(stmt *sqlast.SelectStmt) (map[string]int, map[string]int64) {
	rows := map[string]int{}
	vers := map[string]int64{}
	sqlast.WalkTables(stmt, ex.Cat.ViewQuery, func(name string) {
		if t, ok := ex.Cat.Get(name); ok {
			rows[t.Name] = len(t.Rows)
			vers[t.Name] = t.Version.Load()
		}
	})
	return rows, vers
}
