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
	// DisableSingleScan turns off the cross-level single-scan aggregate
	// maintenance optimization (per-level scans instead).
	DisableSingleScan bool
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
	// NewStore supplies the per-bucket row store; nil uses in-memory.
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
	// relation's key columns; the partition build encodes PBY/DBY keys
	// from them instead of boxed row values (byte-identical either way).
	Cols *ColSource
	// Prebuilt, when non-nil, skips the partition build and evaluates this
	// structure instead. The caller must pass a private copy (see
	// PartitionSet.CloneForReuse); evaluation writes to it and Run closes it.
	Prebuilt *PartitionSet
	// OnBuilt, when non-nil, observes the freshly built structure after the
	// build and before any formula evaluation — the window in which
	// CloneForReuse may capture a pristine copy for the serving-path cache.
	OnBuilt func(*PartitionSet)
	// FastLocal shares rows across the store boundary instead of cloning
	// them on the way in (partition build) and out (result assembly) — see
	// BuildOptions.ShareRows. Only valid with memory-resident stores;
	// callers gate it on the absence of a memory budget. Results are
	// byte-identical either way.
	FastLocal bool
}

// Run executes the compiled spreadsheet over rows in working-schema layout
// and returns the result rows plus access-structure I/O statistics.
func (m *Model) Run(rows []types.Row, opts RunOptions) ([]types.Row, blockstore.Stats, error) {
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
	newStore := opts.NewStore
	if newStore == nil {
		newStore = func() blockstore.Store { return blockstore.NewMem() }
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
		ps, err = BuildPartitionsOpts(m, rows, nb, newStore, BuildOptions{
			Workers:   opts.BuildWorkers,
			Cols:      opts.Cols,
			ShareRows: opts.FastLocal,
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
	return ps.Rows(m.ReturnUpdated), ps.Stats(), nil
}

// evalBucket evaluates every frame of one first-level bucket: level → rule →
// frame over the whole bucket where levelMajor allows it, so a batchable
// existential rule fires once for every partition of the bucket, frame by
// frame otherwise. Both orders poll for cancellation once per frame visited
// (and every few thousand rows a batch images).
func (fe *frameEval) evalBucket(b *bucket) error {
	if fe.levelMajor(b) {
		if len(b.frames) == 0 {
			return nil
		}
		for _, lv := range fe.m.levels {
			if err := fe.runLevel(lv.rules, b.frames); err != nil {
				return err
			}
		}
		return nil
	}
	for _, f := range b.frames {
		if err := fe.opts.ctxErr(); err != nil {
			return err
		}
		if err := fe.evalFrame(f); err != nil {
			return err
		}
	}
	return nil
}

// levelMajor reports whether b runs level → rule → frame: the model's levels
// are plain (AUTOMATIC ORDER without ITERATE, cycles or single scan, so no
// per-frame state outlives a level) and the bucket's rows stay in memory. A
// spilling store keeps the frame-at-a-time order, which is what keeps one
// partition's blocks resident while its rules run (Fig. 5's regime). The
// choice ignores the rule-batching ablation, so the per-cell oracle runs the
// same loop order as the batch engine.
func (fe *frameEval) levelMajor(b *bucket) bool {
	m := fe.m
	_, mem := b.store.(*blockstore.MemStore)
	return mem && !m.SeqOrder && m.Iterate == nil && !m.cyclic && !m.singleScan(fe.opts.Ablate)
}

// singleScan reports whether the cross-level single-scan optimization runs.
func (m *Model) singleScan(a Ablation) bool {
	return !a.DisableSingleScan && m.canSingleScan()
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
// by this (query-coordinator) goroutine.
func (m *Model) runParallel(ps *PartitionSet, opts *RunOptions) error {
	dop := opts.Parallel
	if dop > len(ps.buckets) {
		dop = len(ps.buckets)
	}
	work := make(chan *bucket)
	errs := make(chan error, dop)
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
				if err := fe.evalBucket(b); err != nil {
					errs <- err
					stopOnce.Do(func() { close(stop) })
					return
				}
			}
		}()
	}
	for _, b := range ps.buckets {
		select {
		case work <- b:
		case <-stop:
		}
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
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
	// padCtx and rowCtx are the two long-lived contexts (see their
	// accessors); their hooks read fe.f and fe.cv at call time, so they
	// follow the PE from frame to frame.
	padCtx, rowCtx *eval.Context

	// Scratch of matchTargets and qualConsts, which never nest: the
	// qualifier constants, the predicate context and the target list of the
	// existential rule being applied.
	consts   []qualConst
	predCtx  eval.Context
	predBind eval.Binding
	targets  []int
	// imgNeed and imgTodo are image's column lists: what a batch scan
	// reads, and which of those the bucket's cache lacks.
	imgNeed, imgTodo []int
	// refKey is refColumn's key-encoding buffer.
	refKey []byte
	// boxed is the scratch batch kernels build image columns in (see
	// boxedScratch), all NULL between uses.
	boxed []types.Value
	// iota, full and probed are the batch rules' index scratch: identity,
	// and probeFrames' result and probe buffers.
	iota, full, probed []int32

	// cv values for the formula target currently being evaluated.
	cv []types.Value // indexed by DBY ordinal; nil entry = not bound

	// curAggs maps the CellAgg nodes of the rule under evaluation to their
	// precomputed instances.
	curAggs map[*sqlast.CellAgg]*aggInstance

	// maintained lists instances under inverse maintenance (single-scan
	// mode); nil otherwise.
	maintained []*aggInstance

	// trackRefs enables convergence-flag tracking (Auto-Cyclic).
	trackRefs bool
	gen       int
	changed   bool
	// assigned counts unique cells written in the current iteration.
	assigned map[int64]bool

	// previousVals resolves previous(cell) inside UNTIL conditions.
	previousVals map[*sqlast.Previous]types.Value

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
	}
}

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

// own is the current frame as a one-frame run of its bucket, for the level
// and rule runners on the frame-at-a-time path.
func (fe *frameEval) own() []*Frame {
	return fe.f.b.frames[fe.f.ord : fe.f.ord+1]
}

// evalFrame runs the analysis plan over one spreadsheet partition, from
// clean per-frame state.
func (fe *frameEval) evalFrame(f *Frame) error {
	fe.setFrame(f)
	fe.curAggs, fe.maintained, fe.assigned, fe.previousVals = nil, nil, nil, nil
	fe.trackRefs, fe.changed, fe.gen = false, false, 0
	if fe.m.Iterate != nil || fe.m.SeqOrder {
		return fe.runSequential()
	}
	return fe.runAutomatic()
}

// --- evaluation contexts ---

// constCtx returns the PE's shared context for evaluating partition
// constants (left-side qualifier values, range bounds, aggregate
// instances): bound to the pad row, cv() reading fe.cv. Callers must not
// modify it; those that need to take newCtx.
func (fe *frameEval) constCtx() *eval.Context {
	if fe.padCtx == nil {
		fe.padCtx = fe.newCtx()
	}
	return fe.padCtx
}

// boundCtx returns the PE's shared context for the aggregate-free
// existential loop, which rebinds the context itself to each target row —
// so cell-reference qualifiers evaluated through ctx.Cell see that row. One
// user at a time: the loop does not nest.
func (fe *frameEval) boundCtx() (*eval.Context, *eval.Binding) {
	if fe.rowCtx == nil {
		fe.rowCtx = fe.newCtx()
	}
	return fe.rowCtx, fe.rowCtx.Binding
}

// newCtx builds an evaluation context for right-side expressions, bound to
// the pad row (partition constants only). Its hooks capture the context
// itself: a copy rebound to a frame row (rctx := *ctx) still resolves the
// qualifiers of nested cell references under the original binding.
func (fe *frameEval) newCtx() *eval.Context {
	nav := types.KeepNav
	if fe.m.IgnoreNav {
		nav = types.IgnoreNav
	}
	ctx := &eval.Context{
		Binding:  &eval.Binding{BS: fe.bs, Row: fe.pad},
		Nav:      nav,
		Subquery: fe.opts.Subquery,
	}
	ctx.CurrentV = func(dim string) (types.Value, error) {
		if d := fe.m.DimOrdinal(dim); d >= 0 {
			return fe.cv[d], nil
		}
		if p := fe.m.PbyOrdinal(dim); p >= 0 {
			return fe.f.pby[p], nil
		}
		return types.Null, fmt.Errorf("cv(%s): unknown dimension", dim)
	}
	ctx.Cell = func(c *sqlast.CellRef) (types.Value, error) { return fe.evalCellRef(ctx, c) }
	ctx.CellAgg = func(a *sqlast.CellAgg) (types.Value, error) { return fe.evalCellAgg(ctx, a) }
	ctx.Present = func(c *sqlast.CellRef) (bool, error) {
		if c.Sheet != "" || fe.m.MeasureOrdinal(c.Measure) < 0 {
			return false, fmt.Errorf("IS PRESENT requires a main-sheet cell")
		}
		dims, err := fe.pointDims(ctx, c.Quals)
		if err != nil {
			return false, err
		}
		return fe.f.WasPresent(dims), nil
	}
	return ctx
}

// pointDims evaluates single-valued qualifiers into dimension values.
func (fe *frameEval) pointDims(ctx *eval.Context, quals []sqlast.DimQual) ([]types.Value, error) {
	dims := make([]types.Value, len(quals))
	for i, q := range quals {
		if q.Kind != sqlast.QualPoint {
			return nil, fmt.Errorf("cell reference qualifier %d is not single-valued", i+1)
		}
		v, err := fe.eval(ctx, q.Val)
		if err != nil {
			return nil, err
		}
		dims[i] = v
	}
	return dims, nil
}

// evalCellKey evaluates point qualifiers directly into the caller's key
// buffer, avoiding per-probe allocations. Each caller owns its buffer, so
// nested cell references (qualifier expressions containing lookups) cannot
// clobber it.
func (fe *frameEval) evalCellKey(ctx *eval.Context, quals []sqlast.DimQual, buf []byte) ([]byte, error) {
	for i := range quals {
		if quals[i].Kind != sqlast.QualPoint {
			return nil, fmt.Errorf("cell reference qualifier %d is not single-valued", i+1)
		}
		v, err := fe.eval(ctx, quals[i].Val)
		if err != nil {
			return nil, err
		}
		buf = types.AppendKey(buf, v)
	}
	return buf, nil
}

// evalCellRef resolves a point cell reference: a main-sheet probe or a
// reference-sheet lookup.
func (fe *frameEval) evalCellRef(ctx *eval.Context, c *sqlast.CellRef) (types.Value, error) {
	if c.Sheet == "" {
		if mea := fe.m.MeasureOrdinal(c.Measure); mea >= 0 {
			var arr [48]byte
			key, err := fe.evalCellKey(ctx, c.Quals, arr[:0])
			if err != nil {
				return types.Null, err
			}
			pos, ok := fe.f.lookupKey(key)
			if !ok {
				return types.Null, nil
			}
			if fe.trackRefs {
				fe.f.MarkReferenced(fe.gen, pos, mea)
			}
			return fe.f.Row(pos)[mea], nil
		}
	}
	// Reference-sheet lookup.
	rb, ok := fe.m.refBinding(c)
	if !ok {
		return types.Null, fmt.Errorf("unknown measure %q", c.Measure)
	}
	var arr [48]byte
	key, err := fe.evalCellKey(ctx, c.Quals, arr[:0])
	if err != nil {
		return types.Null, err
	}
	row, found := rb.sheet.Data[string(key)]
	if !found {
		return types.Null, nil
	}
	return row[rb.mea], nil
}
