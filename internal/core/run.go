package core

import (
	"context"
	"fmt"
	"sync"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// PromotedDim records a DBY dimension duplicated into the distribution key
// by the parallel optimizer (query S4 in the paper). Before firing a
// non-existential formula, the engine verifies the trigger condition: the
// formula's target value for the dimension must match the partition's value,
// otherwise the formula belongs to a different PE's data and is skipped.
type PromotedDim struct {
	Pby int // PBY ordinal holding the duplicated value
	Dby int // DBY ordinal of the dimension
}

// Ablation is the spreadsheet engine's set of ablation toggles: switches
// that exist so tests and internal/experiments can compare an optimization
// against its baseline. Results are byte-identical for every setting. The
// zero value enables everything; no serving caller sets a field. This is the
// only declaration of these toggles — the planner, the executor and
// sqlsheet.Config carry the struct by value.
type Ablation struct {
	// Buckets overrides the number of first-level hash partitions
	// (0 = chosen from the input size, memory budget and PE count).
	Buckets int
	// DisableRangeProbe turns off unfolding of small integer ranges into
	// point probes (the paper's F1 transformation), forcing scans.
	DisableRangeProbe bool
	// DisableVectorizedExec keeps every batch layer on its row-at-a-time
	// path: the executor's scans, filters, projections, aggregation and key
	// encoding (no kernels are compiled into the plan), the engine's
	// aggregate partition scans (vecscan.go), and — by implication — rule
	// application.
	DisableVectorizedExec bool
	// DisableVectorizedRules keeps formula application on the per-cell path
	// instead of the batch rule kernels (vecrules.go) while the other batch
	// layers stay on.
	DisableVectorizedRules bool
	// VecMinRows overrides the minimum batch size (partition rows for
	// scans, the rows of every partition of a first-level bucket for
	// existential rules, enumerated targets for single-cell rules) below
	// which the batch paths stay per row; <=0 uses the default (64). Shared
	// by vecscan.go and vecrules.go.
	VecMinRows int
}

// RulesVectorized reports whether formula application uses the batch rule
// kernels: DisableVectorizedExec implies DisableVectorizedRules, so one flag
// ablates every batch layer at once.
func (a Ablation) RulesVectorized() bool {
	return !a.DisableVectorizedExec && !a.DisableVectorizedRules
}

// RunOptions configures spreadsheet execution.
type RunOptions struct {
	// Ctx, when non-nil, makes evaluation cancellable. The engine polls it
	// between partitions, at every cyclic (runSCC) and sequential/ITERATE
	// iteration, and every few thousand rows of a partition scan, so even a
	// single-partition divergent model unwinds promptly with the context's
	// error. Nil (the embedded default) costs nothing.
	Ctx context.Context
	// Parallel is the number of processing elements (PEs); <=1 is serial.
	Parallel int
	// BuildWorkers is the number of workers for the partition build; <=1
	// builds serially. The structure produced is identical either way.
	BuildWorkers int
	// NewStore, when non-nil, gives every first-level bucket a row store (a
	// budgeted run: blockstore.SpillStore). Nil stores no rows: measures
	// live in typed vectors per bucket and keys are read from the input.
	NewStore StoreFactory
	// Subquery executes subqueries inside formula expressions.
	Subquery eval.SubqueryRunner
	// Promoted lists dimensions duplicated into PBY for parallelism.
	Promoted []PromotedDim
	// Ablate carries the engine's ablation toggles; the zero value is the
	// serving configuration.
	Ablate Ablation
	// Stats, when non-nil, receives batch-versus-row path counters
	// (atomic; shared safely by parallel PEs).
	Stats *VecStats
	// Cols, when non-nil, supplies columnar vectors for the working
	// relation's columns: the partition build encodes PBY/DBY keys from
	// them instead of boxed row values, and the structure reads keys and
	// unwritten measures from them (byte-identical either way). rows may be
	// nil when it covers every column.
	Cols *ColSource
	// Prebuilt, when non-nil, skips the partition build and evaluates this
	// structure instead. The caller must pass a private copy (see
	// PartitionSet.CloneForReuse); evaluation writes to it and Run closes it.
	Prebuilt *PartitionSet
	// OnBuilt, when non-nil, observes the freshly built structure after the
	// build and before any formula evaluation — the window in which
	// CloneForReuse may capture a pristine copy for the serving-path cache.
	OnBuilt func(*PartitionSet)
	// Image asks Exec for the result as input positions and typed measure
	// columns (Output.Pos, Output.Meas), with rows only where those cannot
	// serve every column. Ignored with Prebuilt, whose structure has no
	// input.
	Image bool
	// FastLocal is ignored: an unbudgeted structure holds no rows to share
	// or clone. Kept so existing callers compile.
	FastLocal bool
}

// Run executes the compiled spreadsheet over rows in working-schema layout
// and returns the result rows plus access-structure I/O statistics: Exec's
// rows, asked for no image.
func (m *Model) Run(rows []types.Row, opts RunOptions) ([]types.Row, blockstore.Stats, error) {
	opts.Image = false
	out, stats, err := m.Exec(rows, opts)
	if err != nil {
		return nil, stats, err
	}
	return out.Rows, stats, nil
}

// Exec executes the compiled spreadsheet over rows in working-schema layout
// and returns its result — rows, or with opts.Image each output row's input
// position and the measures' columns (see Output) — plus access-structure
// I/O statistics.
func (m *Model) Exec(rows []types.Row, opts RunOptions) (*Output, blockstore.Stats, error) {
	if m.levels == nil {
		if err := m.Analyze(); err != nil {
			return nil, blockstore.Stats{}, err
		}
	}
	if err := m.prepareForIn(opts.Subquery); err != nil {
		return nil, blockstore.Stats{}, err
	}
	if m.compiled == nil {
		m.buildCompiled()
	}
	if opts.Ablate.RulesVectorized() {
		m.buildVecRules()
	}
	nb := opts.Ablate.Buckets
	if nb <= 0 {
		nb = opts.Parallel
		if nb < 1 {
			nb = 1
		}
	}
	ps := opts.Prebuilt
	if ps == nil {
		var err error
		ps, err = BuildPartitionsOpts(m, rows, nb, opts.NewStore, BuildOptions{
			Workers: opts.BuildWorkers,
			Cols:    opts.Cols,
		})
		if err != nil {
			return nil, blockstore.Stats{}, err
		}
		if opts.OnBuilt != nil {
			opts.OnBuilt(ps)
		}
	}
	defer ps.Close()

	if opts.Parallel > 1 && len(ps.buckets) > 1 {
		if err := m.runParallel(ps, &opts); err != nil {
			return nil, ps.Stats(), err
		}
	} else {
		fe := m.newFrameEval(&opts)
		for _, b := range ps.buckets {
			if err := fe.evalBucket(b); err != nil {
				return nil, ps.Stats(), err
			}
		}
	}
	// A reused structure has no input, so no input positions. Rows go out
	// where positions leave a key column unserved: an inserted cell's.
	out := &Output{}
	if opts.Image && opts.Prebuilt == nil {
		out = ps.output(m.ReturnUpdated)
	}
	if out.Pos == nil || out.Inserted {
		out.Rows = ps.rows(m.ReturnUpdated, opts.BuildWorkers)
	}
	// Closing drains the stores' background writers: every spill I/O failure
	// is known, and fails the statement (the rows may be wrong).
	ps.Close()
	for _, b := range ps.buckets {
		if b.store == nil {
			continue
		}
		if err := b.store.Err(); err != nil {
			return nil, ps.Stats(), err
		}
	}
	return out, ps.Stats(), nil
}

// evalBucket runs the model over one first-level bucket: its frames as one
// run while its cells stay in memory, so a batchable rule fires once for
// every partition of the bucket; frame by frame when it has a row store
// (a budgeted run), which keeps one partition's blocks resident while its
// rules run (Fig. 5's regime) and polls the store's I/O failure between
// frames. The choice depends on the store alone, so the per-cell oracle runs
// the loop order the batch engine runs.
func (fe *frameEval) evalBucket(b *bucket) error {
	defer fe.flushCounts()
	fe.spill = b.store != nil
	if !fe.spill {
		return fe.runModel(b.frames)
	}
	for i := range b.frames {
		if err := b.store.Err(); err != nil {
			return err
		}
		if err := fe.runModel(b.frames[i : i+1]); err != nil {
			return err
		}
	}
	return nil
}

// ctxErr polls the run's context (nil-safe); non-nil once cancelled.
func (opts *RunOptions) ctxErr() error {
	if opts.Ctx == nil {
		return nil
	}
	select {
	case <-opts.Ctx.Done():
		return opts.Ctx.Err()
	default:
		return nil
	}
}

// runParallel distributes first-level buckets to PE goroutines coordinated
// by this (query-coordinator) goroutine. It returns the error of the lowest
// failing bucket: buckets are handed out in order and a PE stops only at its
// own error, so every bucket below that one has run, and the error is the
// one the serial loop returns.
func (m *Model) runParallel(ps *PartitionSet, opts *RunOptions) error {
	dop := opts.Parallel
	if dop > len(ps.buckets) {
		dop = len(ps.buckets)
	}
	type bucketErr struct {
		b   int
		err error
	}
	work := make(chan int)
	errs := make(chan bucketErr, dop)
	// stop unblocks the coordinator's send once every PE could have exited
	// early (first error or cancellation); without it, an error on all PEs —
	// guaranteed under cancellation — would deadlock the distribution loop.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for pe := 0; pe < dop; pe++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe := m.newFrameEval(opts)
			for b := range work {
				if err := fe.evalBucket(ps.buckets[b]); err != nil {
					errs <- bucketErr{b, err}
					stopOnce.Do(func() { close(stop) })
					return
				}
			}
		}()
	}
	for b := range ps.buckets {
		select {
		case work <- b:
		case <-stop:
		}
	}
	close(work)
	wg.Wait()
	close(errs)
	first := bucketErr{b: len(ps.buckets)}
	for e := range errs {
		if e.b < first.b {
			first = e
		}
	}
	return first.err
}

// prepareForIn materializes FOR ... IN value lists (literals and
// subqueries) into each qualifier's cache.
func (m *Model) prepareForIn(runner eval.SubqueryRunner) error {
	for _, r := range m.Rules {
		for qi := range r.Quals {
			q := &r.Quals[qi]
			if q.Kind != sqlast.QualForIn || q.forCache != nil {
				continue
			}
			if q.ForSub != nil {
				if runner == nil {
					return fmt.Errorf("%s: FOR %s IN (subquery) requires a subquery runner", r.Label, q.DimName)
				}
				vals, err := runner.Column(q.ForSub, nil)
				if err != nil {
					return fmt.Errorf("%s: FOR %s IN subquery: %v", r.Label, q.DimName, err)
				}
				q.forCache = vals
				continue
			}
			if q.ForFrom != nil {
				vals, err := enumerateFromTo(q, runner)
				if err != nil {
					return fmt.Errorf("%s: FOR %s FROM..TO: %v", r.Label, q.DimName, err)
				}
				q.forCache = vals
				continue
			}
			vals := make([]types.Value, len(q.ForVals))
			for i, e := range q.ForVals {
				v, err := eval.Compile(nil, e).Eval(&eval.Context{Subquery: runner})
				if err != nil {
					return fmt.Errorf("%s: FOR %s IN value %d: %v", r.Label, q.DimName, i+1, err)
				}
				vals[i] = v
			}
			q.forCache = vals
		}
	}
	return nil
}

// maxForEnumeration bounds FOR ... FROM ... TO expansions.
const maxForEnumeration = 1 << 20

// enumerateFromTo expands a FOR dim FROM lo TO hi [INCREMENT step]
// qualifier into its value list.
func enumerateFromTo(q *Qual, runner eval.SubqueryRunner) ([]types.Value, error) {
	ctx := &eval.Context{Subquery: runner}
	lo, err := eval.Compile(nil, q.ForFrom).Eval(ctx)
	if err != nil {
		return nil, err
	}
	hi, err := eval.Compile(nil, q.ForTo).Eval(ctx)
	if err != nil {
		return nil, err
	}
	step := types.NewInt(1)
	if q.ForStep != nil {
		step, err = eval.Compile(nil, q.ForStep).Eval(ctx)
		if err != nil {
			return nil, err
		}
	}
	if !lo.IsNumeric() || !hi.IsNumeric() || !step.IsNumeric() {
		return nil, fmt.Errorf("bounds and increment must be numeric")
	}
	stepF := step.Float()
	if stepF == 0 {
		return nil, fmt.Errorf("INCREMENT must be nonzero")
	}
	isInt := lo.K == types.KindInt && hi.K == types.KindInt && step.K == types.KindInt
	var out []types.Value
	if stepF > 0 {
		for v := lo.Float(); v <= hi.Float(); v += stepF {
			if len(out) >= maxForEnumeration {
				return nil, fmt.Errorf("enumeration exceeds %d values", maxForEnumeration)
			}
			out = append(out, numVal(v, isInt))
		}
	} else {
		for v := lo.Float(); v >= hi.Float(); v += stepF {
			if len(out) >= maxForEnumeration {
				return nil, fmt.Errorf("enumeration exceeds %d values", maxForEnumeration)
			}
			out = append(out, numVal(v, isInt))
		}
	}
	return out, nil
}

func numVal(v float64, isInt bool) types.Value {
	if isInt {
		return types.NewInt(int64(v))
	}
	return types.NewFloat(v)
}

// frameEval carries the evaluation state of one processing element: the
// frame it is working on plus scratch that outlives the frame (contexts,
// the cv vector), so a statement with thousands of small partitions pays
// for them once per PE.
type frameEval struct {
	m    *Model
	f    *Frame
	opts *RunOptions
	bs   *eval.BoundSchema

	// pad is the row bound where no frame row is: the current frame's PBY
	// values, NULLs elsewhere. Read-only between frames.
	pad types.Row
	// padCtx and rowCtx are the two long-lived contexts (see constCtx and
	// bindTarget); their hooks read fe.f and fe.cv at call time, so they
	// follow the PE from frame to frame and from target to target.
	padCtx, rowCtx *eval.Context
	// spill records that the current bucket has a row store, which spills:
	// a row it hands out may be recycled while the right side reads other
	// cells.
	spill bool
	// tgt is the row bindTarget boxes a target into; scanRows[:depth] are
	// the rows the frame scans in progress box theirs into, one per nesting
	// level (a scan's matcher may compute an aggregate that scans again).
	tgt      types.Row
	scanRows []types.Row
	depth    int

	// Scratch of matchTargets and qualConsts, which never nest: the
	// qualifier constants and the target list of the existential rule
	// being applied.
	consts  []qualConst
	targets []int
	// imgNeed lists the columns a batch scan reads.
	imgNeed []int
	// refKeys is refColumn's ordinal scratch and dictionary translations.
	refKeys cellKeys
	// probes counts main-sheet cell probes, aliased the batch cell reads
	// that took the target's own column instead (flushed to Stats per
	// bucket).
	probes, aliased int64
	// boxed is the scratch batch kernels build image columns in (see
	// boxedScratch), all NULL between uses.
	boxed []types.Value
	// iota, full, probed and refIdx are the batch rules' index scratch:
	// identity, probeFrames' result and probe buffers, and refColumn's
	// gather index.
	iota, full, probed, refIdx []int32

	// cv values for the formula target currently being evaluated.
	cv []types.Value // indexed by DBY ordinal; nil entry = not bound

	// curAggs maps the CellAgg nodes of the rule under evaluation to their
	// precomputed instances.
	curAggs map[*sqlast.CellAgg]*aggInstance

	// trackRefs enables convergence-flag tracking (Auto-Cyclic) for the
	// frame a cyclic step is iterating; gen, changed and assigned are that
	// frame's fixpoint state.
	trackRefs bool
	gen       int
	changed   bool
	// assigned holds the cells written in the current fixpoint iteration,
	// cleared per iteration.
	assigned map[int64]bool

	// active is the ITERATE driver's scratch: the frames still iterating.
	active []*Frame
	// prev holds the previous() snapshot of the frame whose UNTIL is being
	// evaluated, one value per Model.prevCells entry; prevs holds every
	// active frame's, frame after frame.
	prev, prevs []types.Value

	// ticks counts rows seen by the heavy partition scans; every tickMask+1
	// rows the context is polled (see tick).
	ticks int
}

// tickMask sets the per-row cancellation poll interval for partition scans:
// cheap enough to disappear in the scan cost, frequent enough that a large
// partition cancels in well under a millisecond of extra work.
const tickMask = 4095

// tick is called once per scanned row inside partition scans; it polls the
// run's context every tickMask+1 rows.
func (fe *frameEval) tick() error {
	fe.ticks++
	if fe.ticks&tickMask != 0 {
		return nil
	}
	return fe.opts.ctxErr()
}

func (m *Model) newFrameEval(opts *RunOptions) *frameEval {
	return &frameEval{
		m:    m,
		opts: opts,
		bs:   m.bs,
		cv:   make([]types.Value, m.NDby),
		pad:  make(types.Row, m.Schema.Len()),
		tgt:  make(types.Row, m.Schema.Len()),
	}
}

// scanRow lends a scratch row to a frame scan; doneRow returns it.
func (fe *frameEval) scanRow() types.Row {
	if fe.depth == len(fe.scanRows) {
		fe.scanRows = append(fe.scanRows, make(types.Row, fe.m.Schema.Len())) // alloc-ok: once per PE and scan nesting depth
	}
	fe.depth++
	return fe.scanRows[fe.depth-1]
}

func (fe *frameEval) doneRow() { fe.depth-- }

// tickN accounts for n rows at once, polling the context when the count
// crosses a poll boundary.
func (fe *frameEval) tickN(n int) error {
	before := fe.ticks
	fe.ticks += n
	if before/(tickMask+1) == fe.ticks/(tickMask+1) {
		return nil
	}
	return fe.opts.ctxErr()
}

// compiledFor returns the closure buildCompiled registered for a formula
// expression. The registry holds every node of every rule, so a miss is an
// engine bug and is reported as one. It is read-only during execution, so PEs
// call this concurrently without locking.
func (fe *frameEval) compiledFor(e sqlast.Expr) (eval.CompiledExpr, error) {
	c, ok := fe.m.compiled[e]
	if !ok {
		return c, fmt.Errorf("internal error: spreadsheet expression %s was not compiled", e)
	}
	return c, nil
}

// eval evaluates a formula expression.
func (fe *frameEval) eval(ctx *eval.Context, e sqlast.Expr) (types.Value, error) {
	c, err := fe.compiledFor(e)
	if err != nil {
		return types.Null, err
	}
	return c.Eval(ctx)
}

// evalBool is eval with SQL boolean coercion (NULL counts as false).
func (fe *frameEval) evalBool(ctx *eval.Context, e sqlast.Expr) (bool, error) {
	c, err := fe.compiledFor(e)
	if err != nil {
		return false, err
	}
	return c.EvalBool(ctx)
}

// setFrame makes f the frame the PE evaluates: the pad row takes its PBY
// values and cv() starts unbound.
func (fe *frameEval) setFrame(f *Frame) {
	fe.f = f
	copy(fe.pad, f.pby)
	clear(fe.cv)
}

// enter polls for cancellation, then makes f the current frame.
func (fe *frameEval) enter(f *Frame) error {
	if err := fe.opts.ctxErr(); err != nil {
		return err
	}
	fe.setFrame(f)
	return nil
}

// --- evaluation contexts ---

// constCtx returns the PE's context for partition constants (left-side
// qualifier values, range bounds, aggregate qualifiers, UNTIL and
// previous()): bound to the pad row, cv() reading fe.cv. Callers must not
// modify it; those that need to take newCtx.
func (fe *frameEval) constCtx() *eval.Context {
	if fe.padCtx == nil {
		fe.padCtx = fe.newCtx(fe.pad, fe.cv, nil)
	}
	return fe.padCtx
}

// bindTarget returns the PE's context for a rule's right side, bound to the
// row of the target cell at pos: a bare column reads that row wherever it
// stands, at the top level or inside a cell reference's qualifier, so
// s[t - 1] is s[cv(t) - 1]. cv() reads fe.cv, which the caller sets to the
// target's dimension values. Aggregates without a prepared instance keep
// the partition binding (constCtx). The row is boxed into the PE's target
// scratch; a spilling store's is copied: the store may recycle it while the
// right side reads other cells.
func (fe *frameEval) bindTarget(pos int) *eval.Context {
	ctx := fe.targetCtx()
	row := fe.f.Row(pos, fe.tgt)
	if fe.spill {
		row = row.Clone() // alloc-ok: spilling stores only, once per target
	}
	ctx.Binding.Row = row
	return ctx
}

// targetCtx is the context bindTarget binds, which matchTargets binds to
// each candidate row of a left-side predicate.
func (fe *frameEval) targetCtx() *eval.Context {
	if fe.rowCtx == nil {
		fe.rowCtx = fe.newCtx(nil, fe.cv, fe.constCtx())
	}
	return fe.rowCtx
}

// newCtx builds an evaluation context bound to row, cv() reading cv. Cell
// references and IS PRESENT evaluate their qualifiers in the context
// itself, aggregates without a prepared instance theirs in aggs (nil: the
// context itself).
func (fe *frameEval) newCtx(row types.Row, cv []types.Value, aggs *eval.Context) *eval.Context {
	nav := types.KeepNav
	if fe.m.IgnoreNav {
		nav = types.IgnoreNav
	}
	ctx := &eval.Context{
		Binding:  &eval.Binding{BS: fe.bs, Row: row},
		Nav:      nav,
		Subquery: fe.opts.Subquery,
		Previous: fe.previous,
	}
	if aggs == nil {
		aggs = ctx
	}
	ctx.CurrentV = func(dim string) (types.Value, error) {
		if d := fe.m.DimOrdinal(dim); d >= 0 {
			return cv[d], nil
		}
		if p := fe.m.PbyOrdinal(dim); p >= 0 {
			return fe.f.pby[p], nil
		}
		return types.Null, fmt.Errorf("cv(%s): unknown dimension", dim)
	}
	ctx.Cell = func(c *sqlast.CellRef) (types.Value, error) { return fe.evalCellRef(ctx, c) }
	ctx.CellAgg = func(a *sqlast.CellAgg) (types.Value, error) { return fe.evalCellAgg(aggs, a) }
	ctx.Present = func(c *sqlast.CellRef) (bool, error) {
		if c.Sheet != "" || fe.m.MeasureOrdinal(c.Measure) < 0 {
			return false, fmt.Errorf("IS PRESENT requires a main-sheet cell")
		}
		var arr [4]types.Value
		dims, err := fe.evalCellDims(ctx, c.Quals, arr[:0])
		if err != nil {
			return false, err
		}
		return fe.f.WasPresent(dims), nil
	}
	return ctx
}

// evalCellDims evaluates point qualifiers into the caller's value buffer,
// avoiding per-probe allocations. Each caller owns its buffer, so nested
// cell references (qualifier expressions containing lookups) cannot clobber
// it.
func (fe *frameEval) evalCellDims(ctx *eval.Context, quals []sqlast.DimQual, buf []types.Value) ([]types.Value, error) {
	for i := range quals {
		if quals[i].Kind != sqlast.QualPoint {
			return nil, fmt.Errorf("cell reference qualifier %d is not single-valued", i+1)
		}
		v, err := fe.eval(ctx, quals[i].Val)
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}

// evalCellRef resolves a point cell reference: a main-sheet probe or a
// reference-sheet lookup.
func (fe *frameEval) evalCellRef(ctx *eval.Context, c *sqlast.CellRef) (types.Value, error) {
	if c.Sheet == "" {
		if mea := fe.m.MeasureOrdinal(c.Measure); mea >= 0 {
			var arr [4]types.Value
			dims, err := fe.evalCellDims(ctx, c.Quals, arr[:0])
			if err != nil {
				return types.Null, err
			}
			fe.probes++
			pos, ok := fe.f.Lookup(dims)
			if !ok {
				return types.Null, nil
			}
			if fe.trackRefs {
				fe.f.MarkReferenced(fe.gen, pos, mea)
			}
			return fe.f.value(pos, mea), nil
		}
	}
	// Reference-sheet lookup.
	rb, ok := fe.m.refBinding(c)
	if !ok {
		return types.Null, fmt.Errorf("unknown measure %q", c.Measure)
	}
	var arr [4]types.Value
	dims, err := fe.evalCellDims(ctx, c.Quals, arr[:0])
	if err != nil {
		return types.Null, err
	}
	row, found := rb.sheet.lookup(dims)
	if !found {
		return types.Null, nil
	}
	return row[rb.mea], nil
}
