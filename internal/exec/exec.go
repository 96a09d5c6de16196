// Package exec is the physical executor: it runs logical plans from
// internal/plan over catalog tables, provides the subquery runner the
// evaluator and spreadsheet engine use, and drives spreadsheet execution
// (reference-sheet materialization, store selection, parallelism).
package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Ablation is the executor's set of ablation toggles; the optimizer's live
// in plan.Ablation and the spreadsheet engine's in core.Ablation. The zero
// value is the serving configuration; no serving caller sets a field.
type Ablation struct {
	// MorselSize overrides the operator morsel size in rows (0 = 1024).
	// Morsel boundaries — and therefore result bytes, floating-point
	// accumulation included — depend only on this and the input size,
	// never on Workers.
	MorselSize int
	// DisableAsyncSpill keeps spill stores on synchronous eviction I/O and
	// disables read-ahead (identical bytes either way).
	DisableAsyncSpill bool
}

// Options configures execution.
type Options struct {
	// Ctx, when non-nil, makes execution cancellable: the executor polls it
	// at every plan-node boundary and every operator morsel, and the
	// spreadsheet engine polls it per partition, per cyclic/ITERATE
	// iteration and every few thousand scanned rows. On cancellation the
	// statement unwinds with the context's error. A nil Ctx costs nothing.
	Ctx context.Context
	// Parallel is the spreadsheet degree of parallelism (PE count).
	Parallel int
	// Workers is the operator worker-pool size for morsel-driven parallel
	// relational operators (filter, project, hash join, group-by).
	// 0 = runtime.NumCPU(); 1 = serial operators. The pool and the
	// spreadsheet PEs share one core budget of max(Workers, Parallel).
	Workers int
	// MemoryBudget bounds each first-level partition's resident bytes;
	// 0 = unbounded (in-memory stores, no spilling).
	MemoryBudget int64
	// SpillDir is where budgeted stores spill (default: os.TempDir()).
	SpillDir string
	// Ablate carries the executor's own ablation toggles.
	Ablate Ablation
	// Engine carries the spreadsheet engine's ablation toggles, handed to
	// every Model.Run. The executor itself reads DisableVectorizedExec,
	// which keeps its scans, filters and key encoding on the row-at-a-time
	// paths; PlanOpts carries the same struct so kernels are not even
	// compiled when it is set.
	Engine core.Ablation
	// PlanOpts is used when the executor plans subqueries itself.
	PlanOpts *plan.Options
	// Structs, when non-nil, lets execSpreadsheet reuse cached access
	// structures for the plan's spreadsheet nodes and publish freshly
	// built ones. Set by the DB layer when executing a cached plan.
	Structs StructureCache
	// Snap is the statement's MVCC snapshot: every table scan reads the
	// image pinned at the statement's first access to that table. A SELECT
	// passes its own, so planning, execution and dependency stamping share
	// the pins; nil makes New pin a fresh one. A DML executor leaves it nil
	// and so reads the last published images, which under the exclusive
	// statement lock are the live state at statement start (the database
	// publishes after every mutating statement) — a statement never scans
	// rows it is itself writing.
	Snap *catalog.Snapshot
	// FastLocalPath is ignored: an unbudgeted spreadsheet run keeps no rows
	// to share or clone (its measures live in typed vectors). Kept so
	// existing callers compile.
	FastLocalPath bool
}

// Result is a materialized relation. Img/RowIdx/ColMap, when set, record
// columnar provenance: the rows are a selection over the columnar image Img
// — Rows[i] is image row RowIdx[i] (identity when RowIdx is nil) and output
// column j is image column ColMap[j] (identity when ColMap is nil).
// Downstream operators use the provenance for batch kernels and columnar
// key encoding; operators that cannot maintain it drop it, which is always
// correct (the row path is the source of truth).
//
// Rows may be nil when Img is set: the result is then its positions only
// (Len rows, image row RowIdx[i] or i), the image serves every schema
// column, and rows exist only once boxed (box.go). Only the executor's own
// operators see that form; Execute always returns rows.
type Result struct {
	Schema *eval.BoundSchema
	Rows   []types.Row
	Img    *colstore.Table
	RowIdx []int32
	ColMap []int
}

// Executor runs plans. Create one per top-level statement: subquery and CTE
// caches live for the executor's lifetime.
type Executor struct {
	Cat  *catalog.Catalog
	Opts Options

	mu        sync.Mutex
	cteCache  map[*plan.CTEDef]*Result
	subPlans  map[*sqlast.SelectStmt]plan.Node
	subCache  map[*sqlast.SelectStmt]*Result
	subCorrel map[*sqlast.SelectStmt]bool
	subSets   map[*sqlast.SelectStmt]*valSet

	// bud is the shared core budget drawn on by operator worker pools and
	// spreadsheet PEs alike (see parallel.go).
	bud *budget

	// SheetStats accumulates access-structure I/O from spreadsheet nodes.
	SheetStats blockstore.Stats
	// ExecStats accumulates per-operator parallel execution measurements.
	ExecStats Stats
}

// New creates an executor over a catalog.
func New(cat *catalog.Catalog, opts Options) *Executor {
	if opts.Snap == nil {
		opts.Snap = catalog.NewSnapshot()
	}
	ex := &Executor{
		Cat:       cat,
		Opts:      opts,
		cteCache:  map[*plan.CTEDef]*Result{},
		subPlans:  map[*sqlast.SelectStmt]plan.Node{},
		subCache:  map[*sqlast.SelectStmt]*Result{},
		subCorrel: map[*sqlast.SelectStmt]bool{},
		subSets:   map[*sqlast.SelectStmt]*valSet{},
	}
	// One budget for the whole statement: the larger of the two requested
	// degrees, minus the coordinating goroutine itself.
	total := ex.workers()
	if opts.Parallel > total {
		total = opts.Parallel
	}
	ex.bud = newBudget(total - 1)
	return ex
}

// checkCtx polls the execution context; it returns the cancellation error
// once the context is done and nil for a nil context (the embedded default).
func (ex *Executor) checkCtx() error {
	ctx := ex.Opts.Ctx
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// run runs a plan node; its result may leave the rows unboxed (see
// box.go). Operators that read images call it for their input, every other
// one calls Execute.
func (ex *Executor) run(n plan.Node, outer *eval.Binding) (*Result, error) {
	if err := ex.checkCtx(); err != nil {
		return nil, err
	}
	switch x := n.(type) {
	case *plan.Scan:
		return ex.execScan(x, outer)
	case *plan.CTERef:
		return ex.execCTERef(x, outer)
	case *plan.Filter:
		return ex.execFilter(x, outer)
	case *plan.Project:
		return ex.execProject(x, outer)
	case *plan.Join:
		return ex.execJoin(x, outer)
	case *plan.GroupBy:
		return ex.execGroupBy(x, outer)
	case *plan.Union:
		l, err := ex.Execute(x.L, outer)
		if err != nil {
			return nil, err
		}
		r, err := ex.Execute(x.R, outer)
		if err != nil {
			return nil, err
		}
		rows := make([]types.Row, 0, len(l.Rows)+len(r.Rows))
		rows = append(rows, l.Rows...)
		rows = append(rows, r.Rows...)
		return &Result{Schema: n.Schema(), Rows: rows}, nil
	case *plan.Distinct:
		in, err := ex.Execute(x.Input, outer)
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, len(in.Rows))
		var rows []types.Row
		var buf []byte
		for _, r := range in.Rows {
			buf = buf[:0]
			for _, v := range r {
				buf = types.AppendKey(buf, v)
			}
			// string(buf) in the map index does not allocate; the key
			// string is materialized only for first-seen rows.
			if !seen[string(buf)] {
				seen[string(buf)] = true
				rows = append(rows, r)
			}
		}
		return &Result{Schema: n.Schema(), Rows: rows}, nil
	case *plan.Sort:
		return ex.execSort(x, outer)
	case *plan.Limit:
		in, err := ex.Execute(x.Input, outer)
		if err != nil {
			return nil, err
		}
		ex.opLine("limit", len(in.Rows), 0, 1, time.Now(), fmt.Sprintf("k=%d", x.N))
		if len(in.Rows) > x.N {
			in = &Result{Schema: in.Schema, Rows: in.Rows[:x.N]}
		}
		return in, nil
	case *plan.Alias:
		in, err := ex.run(x.Input, outer)
		if err != nil {
			return nil, err
		}
		// Aliasing renames columns without reordering rows or columns, so
		// columnar provenance carries through unchanged.
		return &Result{Schema: n.Schema(), Rows: in.Rows, Img: in.Img, RowIdx: in.RowIdx, ColMap: in.ColMap}, nil
	case *plan.OneRow:
		return &Result{Schema: n.Schema(), Rows: []types.Row{{}}}, nil
	case *plan.Window:
		return ex.execWindow(x, outer)
	case *plan.Spreadsheet:
		return ex.execSpreadsheet(x, outer)
	}
	return nil, fmt.Errorf("exec: unsupported node %T", n)
}

// ctx builds an evaluation context bound to a schema/row pair chained to
// the outer binding.
func (ex *Executor) ctx(bs *eval.BoundSchema, row types.Row, outer *eval.Binding) *eval.Context {
	return &eval.Context{
		Binding:  &eval.Binding{BS: bs, Row: row, Parent: outer},
		Subquery: &runner{ex: ex},
	}
}

func (ex *Executor) execScan(n *plan.Scan, outer *eval.Binding) (*Result, error) {
	if res, err, ok := ex.execScanVec(n); ok {
		return res, err
	}
	return ex.scanRows(ex.image(n.Table).Rows, n.Schema(), n.Filter, n.FilterC, outer)
}

// image is the one way a scan reads a table: the image the statement's
// snapshot pinned at its first access to t. Its rows and their columnar
// transposition belong together, so the vectorized path can never pair a
// newer transposition with older rows.
func (ex *Executor) image(t *catalog.Table) *mvcc.Image {
	return ex.Opts.Snap.Pin(t)
}

// execCTERef reads a CTE's result, run once per execution and cached as
// the body left it — positions over an image where it has them. An
// unfiltered reference shares the cached image and positions; a filtered
// one, or a boxed result, scans rows (the cached result boxed once).
func (ex *Executor) execCTERef(n *plan.CTERef, outer *eval.Binding) (*Result, error) {
	ex.mu.Lock()
	cached := ex.cteCache[n.Def]
	ex.mu.Unlock()
	if cached == nil {
		res, err := ex.run(n.Def.Plan, nil)
		if err != nil {
			return nil, err
		}
		ex.mu.Lock()
		ex.cteCache[n.Def] = res
		cached = res
		ex.mu.Unlock()
	}
	if cached.unboxed() {
		if n.Filter == nil {
			return &Result{Schema: n.Schema(), Img: cached.Img, RowIdx: cached.RowIdx, ColMap: cached.ColMap}, nil
		}
		boxed, err := ex.boxed(cached)
		if err != nil {
			return nil, err
		}
		ex.mu.Lock()
		ex.cteCache[n.Def] = boxed
		ex.mu.Unlock()
		cached = boxed
	}
	return ex.scanRows(cached.Rows, n.Schema(), n.Filter, n.FilterC, outer)
}

func (ex *Executor) scanRows(src []types.Row, schema *eval.BoundSchema, filter sqlast.Expr, filterC eval.CompiledExpr, outer *eval.Binding) (*Result, error) {
	if filter == nil {
		rows := make([]types.Row, len(src))
		copy(rows, src)
		return &Result{Schema: schema, Rows: rows}, nil
	}
	// Morsel-parallel path. Predicates containing subqueries stay serial:
	// parallel workers must not race the correlated-subquery detection or
	// execute shared subquery plans (and their Models) concurrently. The
	// compiled predicate is shared across workers — its closures capture
	// only immutable compile-time data; per-row state lives in each
	// worker's own Context.
	if nm := ex.morselCount(len(src)); nm > 0 && !sqlast.HasSubquery(filter) {
		parts := make([][]types.Row, nm)
		wc := ex.workerCtxs(schema, outer)
		_, err := ex.forEachMorsel("filter", len(src), func(w int, m morsel) error {
			ctx := wc.get(w)
			var out []types.Row
			for _, r := range src[m.Lo:m.Hi] {
				ctx.Binding.Row = r
				ok, err := filterC.EvalBool(ctx)
				if err != nil {
					return err
				}
				if ok {
					out = append(out, r)
				}
			}
			parts[m.Idx] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		return &Result{Schema: schema, Rows: stitch(parts)}, nil
	}
	start := time.Now()
	ctx := ex.ctx(schema, nil, outer)
	var rows []types.Row
	for _, r := range src {
		ctx.Binding.Row = r
		ok, err := filterC.EvalBool(ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, r)
		}
	}
	ex.opLine("filter", len(src), 0, 1, start, "")
	return &Result{Schema: schema, Rows: rows}, nil
}

func (ex *Executor) execFilter(n *plan.Filter, outer *eval.Binding) (*Result, error) {
	in, err := ex.run(n.Input, outer)
	if err != nil {
		return nil, err
	}
	if !ex.Opts.Engine.DisableVectorizedExec && vecRunnable(in, n.CondK) {
		return ex.vecFilter(in, n.CondK, in.Schema)
	}
	if in, err = ex.boxed(in); err != nil {
		return nil, err
	}
	return ex.scanRows(in.Rows, in.Schema, n.Cond, n.CondC, outer)
}

func (ex *Executor) execProject(n *plan.Project, outer *eval.Binding) (*Result, error) {
	in, err := ex.run(n.Input, outer)
	if err != nil {
		return nil, err
	}
	// Vectorized path: a projection of plain column references is a gather.
	// Each morsel shares one flat value backing (rows are full-length
	// sub-slices, so per-row appends cannot clobber neighbours), and
	// columnar provenance composes through the ordinal map.
	if !ex.Opts.Engine.DisableVectorizedExec {
		if ords, ok := plainOrdinals(in.Schema, n.Exprs); ok {
			if identityOrdinals(ords, in) {
				// Every input column in order: the input itself under the
				// node's names. No consumer writes or appends into a row it
				// did not allocate (rows are never written after a table
				// stores them; operators build fresh output rows), so
				// sharing them is safe, as Alias does.
				return &Result{Schema: n.Schema(), Rows: in.Rows, Img: in.Img, RowIdx: in.RowIdx, ColMap: in.ColMap}, nil
			}
			if in.unboxed() {
				// Positions in, positions out: only the column map changes.
				return &Result{Schema: n.Schema(), Img: in.Img, RowIdx: in.RowIdx, ColMap: composeCols(in, ords)}, nil
			}
			start := time.Now()
			rows := make([]types.Row, len(in.Rows))
			gather := func(m morsel) {
				w := len(ords)
				flat := make([]types.Value, (m.Hi-m.Lo)*w)
				for i := m.Lo; i < m.Hi; i++ {
					out := flat[(i-m.Lo)*w : (i-m.Lo+1)*w : (i-m.Lo+1)*w]
					src := in.Rows[i]
					for j, o := range ords {
						out[j] = src[o]
					}
					rows[i] = out
				}
			}
			if nm := ex.morselCount(len(in.Rows)); nm > 0 {
				if _, err := ex.forEachMorsel("project", len(in.Rows), func(_ int, m morsel) error {
					gather(m)
					return nil
				}); err != nil {
					return nil, err
				}
			} else {
				gather(morsel{Lo: 0, Hi: len(in.Rows)})
				ex.opLine("project", len(in.Rows), 0, 1, start, "")
			}
			res := &Result{Schema: n.Schema(), Rows: rows}
			if vecOK(in) && func() bool {
				for _, o := range ords {
					if vecCol(in, o) == nil {
						return false
					}
				}
				return true
			}() {
				res.Img, res.RowIdx, res.ColMap = in.Img, in.RowIdx, composeCols(in, ords)
			}
			return res, nil
		}
	}
	// Batch path: every output expression has a supported compute kernel, so
	// whole output vectors are computed per morsel and the result publishes a
	// fresh columnar image (see vecproject.go).
	if res, err, ok := ex.execProjectVec(n, in); ok {
		return res, err
	}
	if in, err = ex.boxed(in); err != nil {
		return nil, err
	}
	// Each morsel's rows share one flat backing (every row a full-length
	// sub-slice), as the gather path's and boxed's do.
	projectMorsel := func(ctx *eval.Context, rows []types.Row, m morsel) error {
		w := len(n.ExprsC)
		flat := make([]types.Value, (m.Hi-m.Lo)*w)
		for i := m.Lo; i < m.Hi; i++ {
			ctx.Binding.Row = in.Rows[i]
			out := flat[(i-m.Lo)*w : (i-m.Lo+1)*w : (i-m.Lo+1)*w]
			for j, c := range n.ExprsC {
				v, err := c.Eval(ctx)
				if err != nil {
					return err
				}
				out[j] = v
			}
			rows[i] = out
		}
		return nil
	}
	// Morsel-parallel path: output slots are preallocated, each worker
	// writes disjoint indices, so row order is trivially preserved.
	if nm := ex.morselCount(len(in.Rows)); nm > 0 && !anyHasSubquery(n.Exprs) {
		rows := make([]types.Row, len(in.Rows))
		wc := ex.workerCtxs(in.Schema, outer)
		if _, err := ex.forEachMorsel("project", len(in.Rows), func(w int, m morsel) error {
			return projectMorsel(wc.get(w), rows, m)
		}); err != nil {
			return nil, err
		}
		return &Result{Schema: n.Schema(), Rows: rows}, nil
	}
	start := time.Now()
	ctx := ex.ctx(in.Schema, nil, outer)
	rows := make([]types.Row, len(in.Rows))
	if err := projectMorsel(ctx, rows, morsel{Lo: 0, Hi: len(in.Rows)}); err != nil {
		return nil, err
	}
	ex.opLine("project", len(in.Rows), 0, 1, start, "")
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}

// composeCols is the column map of a projection reading in's schema
// ordinals ords: each one's image column.
func composeCols(in *Result, ords []int) []int {
	cmap := make([]int, len(ords))
	for j, o := range ords {
		if in.ColMap != nil {
			cmap[j] = in.ColMap[o]
		} else {
			cmap[j] = o
		}
	}
	return cmap
}

// anyHasSubquery reports whether any expression contains a subquery; such
// operators keep the serial path (see scanRows).
func anyHasSubquery(es []sqlast.Expr) bool {
	for _, e := range es {
		if sqlast.HasSubquery(e) {
			return true
		}
	}
	return false
}

// stableSort is a bottom-up merge sort (stable, no stdlib sort.Slice churn
// in the hot path of large ORDER BY results).
func stableSort[T any](xs []T, cmp func(a, b T) int) {
	n := len(xs)
	if n < 2 {
		return
	}
	buf := make([]T, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if i < mid && (j >= hi || cmp(xs[j], xs[i]) >= 0) {
					buf[k] = xs[i]
					i++
				} else {
					buf[k] = xs[j]
					j++
				}
			}
		}
		copy(xs, buf)
	}
}

// FormatTable renders a result as an aligned text table (REPL, examples).
func (r *Result) FormatTable() string {
	var b strings.Builder
	names := make([]string, len(r.Schema.Cols))
	widths := make([]int, len(names))
	for i, c := range r.Schema.Cols {
		names[i] = c.Name
		widths[i] = len(c.Name)
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := v.String()
			cells[i][j] = s
			if j < len(widths) && len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	writeRow := func(vals []string) {
		for j, s := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			for k := len(s); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for j := range names {
		if j > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[j]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d rows)\n", len(r.Rows))
	return b.String()
}
