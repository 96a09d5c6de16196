package core

import (
	"slices"
	"sync/atomic"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Batch rule application: the per-cell formula loops — applyPoint over the
// enumerated targets of a single-cell rule, applyExistentialCells over the
// scan (II) matches of an existential rule — are replaced, for rules on the
// kernel domain, by one batch per rule:
//
//  1. an existential rule images every frame of its bucket at once (image:
//     one columnar table, each frame a row range of it, shared with the batch
//     aggregate scan through the bucket's image cache) — the level-major loop
//     of evalBucket hands it the whole bucket; a single-cell rule gathers its
//     frame's target rows into a mini image after every UPSERT miss has been
//     appended in target order;
//  2. the left side becomes a selection: declarative qualifiers run the row
//     matcher's own types.Equal / NULL-rejecting types.Compare tests over
//     the image with each frame's own constants, predicate qualifiers run as
//     selection kernels (eval.CompileSelKernel — TRUE-set identical to
//     evalBool);
//  3. the right side runs as one expression kernel
//     (eval.CompileExprKernelExt) whose extension leaves resolve what the
//     schema cannot: cv() becomes a dimension-column read (or the partition
//     constant of each frame), an aggregate becomes each frame's precomputed
//     accumulator result, a reference-sheet point read becomes qualifier
//     kernels producing key columns, one probe of the sheet's index per row
//     and a gather of the read measure, and a main-sheet point reference
//     becomes qualifier kernels producing key columns, one bulk probe of
//     each row's own frame (Frame.LookupBatch) and a columnar gather of the
//     referenced measure — the paper's F1 probe unfolding done once per rule
//     instead of once per cell. A reference read may stand inside a
//     main-sheet reference's qualifier, so s[parent1[cv(p)]] — the paper's
//     join with the reference sheet followed by a self-join — is two chained
//     gathers;
//  4. the result vector is written back frame by frame with
//     Frame.SetMeasureBulk, in the per-cell path's exact cell order with its
//     exact compare-then-clone assignment semantics.
//
// The decision is per rule and conservative: ITERATE/sequential models,
// cyclic (SCC) rules, ORDER BY, IGNORE NAV, self-reading cell references,
// cv() inside aggregate qualifiers and anything else off the kernel domain
// keeps the rule on the per-cell path, annotated with a reason EXPLAIN
// surfaces. At runtime any batch-stage error or unsupported column
// representation falls back before a single measure is written, so the
// per-cell path reproduces results — and error text and error position —
// exactly. Ablation.DisableVectorizedRules ablates the layer without changing
// the loop order; RunOptions.Stats counts the decisions.

// Rule vectorization notes, surfaced by EXPLAIN next to each rule. The
// "yes" value doubles as the runtime gate: only a prog whose note is
// ruleVecYes carries compiled kernels.
const (
	ruleVecYes           = "yes"
	ruleVecNoIterate     = "no(iterate)"
	ruleVecNoIgnoreNav   = "no(ignore-nav)"
	ruleVecNoCyclic      = "no(cyclic)"
	ruleVecNoOrderBy     = "no(order-by)"
	ruleVecNoCvQual      = "no(cv-qualifier)"
	ruleVecNoSelfRead    = "no(self-read)"
	ruleVecNoUnsupported = "no(unsupported-expr)"
	ruleVecNoDisabled    = "no(disabled)"
)

// VecStats counts batch-versus-row decisions during a run: one Rule tick
// per rule application to a frame (a batch over a whole bucket ticks once per
// frame), one Scan tick per aggregate partition scan. Counters are atomic so
// parallel PEs share one struct.
type VecStats struct {
	RuleBatch atomic.Int64
	RuleRow   atomic.Int64
	ScanBatch atomic.Int64
	ScanRow   atomic.Int64
}

// countRule records the application of one rule to n frames (nil-safe).
func (s *VecStats) countRule(batch bool, n int) {
	if s == nil {
		return
	}
	if batch {
		s.RuleBatch.Add(int64(n))
	} else {
		s.RuleRow.Add(int64(n))
	}
}

// countScan records one aggregate partition scan (nil-safe).
func (s *VecStats) countScan(batch bool) {
	if s == nil {
		return
	}
	if batch {
		s.ScanBatch.Add(1)
	} else {
		s.ScanRow.Add(1)
	}
}

// Extension-leaf kinds: expression shapes the working schema cannot
// resolve, lowered to extra image columns the runtime populates.
const (
	leafCV    = iota // cv(dim) over a DBY dimension
	leafPbyCV        // cv(dim) over a PBY column (partition constant)
	leafCell         // point cell reference on the main sheet
	leafRef          // point read of a reference-sheet measure
	leafAgg          // aggregate reference (accumulator precomputed)
	leafNull         // bare dim/measure column reference (NULL per target)
)

// vecLeaf is one extension leaf of a rule's right-side kernel.
type vecLeaf struct {
	kind int
	// ord is the leaf's column ordinal in the extended image
	// (Schema.Len() + leaf index). A leaf's qualifier kernels read only
	// leaves of lower ordinal, so filling the columns in order is a
	// topological order.
	ord int
	// dim is the DBY ordinal (leafCV) or PBY ordinal (leafPbyCV).
	dim int
	// mea is the referenced measure's ordinal: in the working schema
	// (leafCell) or in the reference sheet's row layout (leafRef).
	mea  int
	ref  *RefMeta // leafRef
	cell *sqlast.CellRef
	agg  *sqlast.CellAgg
	// qualKerns computes the cell reference's point-qualifier values, one
	// kernel per dimension of the sheet it reads; their output columns are
	// the probe's key image (leafCell, leafRef).
	qualKerns []eval.ExprKernel
}

// vecRuleProg is one rule's compiled batch form. note != ruleVecYes means
// the rule stays on the per-cell path (kernels absent).
type vecRuleProg struct {
	note   string
	rhs    eval.ExprKernel
	leaves []vecLeaf
	// preds holds one selection kernel per predicate qualifier of an
	// existential left side, indexed by qualifier position (zero-value
	// kernel elsewhere).
	preds []eval.SelKernel
	// cols lists the working-schema columns the batch reads out of the
	// frames' rows, each once: what image (existential rules) or the target
	// mini image (single-cell rules) must materialise.
	cols []int
	// typed lists the image columns the right side computes on, directly or
	// through a cell leaf's gather: a mixed-kind (boxed) one has no kernel,
	// so an existential batch checks them first and falls back before
	// building anything else.
	typed []int
}

// vecRuleCompiler carries the state of one rule's batch compilation.
type vecRuleCompiler struct {
	m    *Model
	r    *Rule
	bs   *eval.BoundSchema
	base int // first extension ordinal = Schema.Len()
	// failNote records the first specific fallback reason hit inside the
	// extension hook (the hook itself can only answer yes/no).
	failNote string
	leaves   []vecLeaf
	// qualPad selects the binding bare column references see inside
	// cell-reference qualifiers. The per-cell engine evaluates them through
	// the ctx.Cell closure, whose captured binding depends on the code path:
	// applyPoint and the aggregate-bearing existential path capture the
	// padded target context (PBY values, NULLs elsewhere), while the
	// aggregate-free existential fast path rebinds the shared context to the
	// current frame row in place — so its qualifiers read row values.
	qualPad bool
}

func (c *vecRuleCompiler) fail(note string) {
	if c.failNote == "" {
		c.failNote = note
	}
}

func (c *vecRuleCompiler) addLeaf(lf vecLeaf) int {
	lf.ord = c.base + len(c.leaves)
	c.leaves = append(c.leaves, lf)
	return lf.ord
}

// leafOrd is the kernel compiler's extension hook: it maps cv(), cell
// references and aggregates to extension ordinals, or declines (keeping
// the rule per-cell).
func (c *vecRuleCompiler) leafOrd(e sqlast.Expr) (int, bool) {
	switch x := e.(type) {
	case *sqlast.CurrentV:
		return c.cvLeaf(x)
	case *sqlast.CellRef:
		return c.cellLeaf(x)
	case *sqlast.CellAgg:
		return c.aggLeaf(x)
	}
	// Bare column references fall through to the kernel's own schema
	// resolution: the per-cell path binds the right side to the target's
	// frame row (applyPoint/applyExistentialCells), so reading the image
	// column at the same ordinal is exactly the interpreter's value — dims
	// and measures alike (a measure read is the cell's own pre-write value;
	// duplicate targets force the per-cell path, so no batch target is
	// written before it is read).
	return 0, false
}

// cvOnly is the restricted hook for cell-reference qualifier kernels: cv(),
// bare column references and reference-sheet reads resolve, so a nested
// main-sheet cell reference or an aggregate inside a qualifier keeps the
// whole rule per-cell.
func (c *vecRuleCompiler) cvOnly(e sqlast.Expr) (int, bool) {
	switch x := e.(type) {
	case *sqlast.CurrentV:
		return c.cvLeaf(x)
	case *sqlast.CellRef:
		if x.Sheet == "" && c.m.MeasureOrdinal(x.Measure) >= 0 {
			return 0, false
		}
		return c.refLeaf(x)
	case *sqlast.ColumnRef:
		if c.qualPad {
			return c.colLeaf(x)
		}
		// Row-bound qualifier context: fall through to plain image
		// resolution, the same ordinal the rebound per-cell binding reads.
		return 0, false
	}
	return 0, false
}

// colLeaf lowers a bare column reference inside a cell-reference qualifier.
// Unlike the right side proper (bound to the target's frame row), qualifier
// expressions evaluate under the padded binding captured by ctx.Cell
// (the pad row): PBY columns carry the partition value, everything past the
// PBY prefix reads as NULL. Resolving against the image instead would
// (wrongly) read each row's own values, so the leaf broadcasts the same
// constants the interpreter sees. Unresolvable names decline — the per-cell
// path owns the unknown-column error.
func (c *vecRuleCompiler) colLeaf(x *sqlast.ColumnRef) (int, bool) {
	idx, ok, err := c.bs.Resolve(x.Table, x.Name)
	if err != nil || !ok {
		return 0, false
	}
	if idx < c.m.NPby {
		for _, lf := range c.leaves {
			if lf.kind == leafPbyCV && lf.dim == idx {
				return lf.ord, true
			}
		}
		return c.addLeaf(vecLeaf{kind: leafPbyCV, dim: idx}), true
	}
	for _, lf := range c.leaves {
		if lf.kind == leafNull {
			return lf.ord, true
		}
	}
	return c.addLeaf(vecLeaf{kind: leafNull}), true
}

func (c *vecRuleCompiler) cvLeaf(x *sqlast.CurrentV) (int, bool) {
	kind, ix := leafCV, c.m.DimOrdinal(x.Dim)
	if ix < 0 {
		kind, ix = leafPbyCV, c.m.PbyOrdinal(x.Dim)
		if ix < 0 {
			return 0, false
		}
	}
	for _, lf := range c.leaves {
		if lf.kind == kind && lf.dim == ix {
			return lf.ord, true
		}
	}
	return c.addLeaf(vecLeaf{kind: kind, dim: ix}), true
}

// cellLeaf lowers a point cell reference: a main-sheet probe, or a
// reference-sheet read (refLeaf). Self-reads (a reference back to the
// assigned measure, whose value changes as the rule fires cell by cell)
// decline.
func (c *vecRuleCompiler) cellLeaf(x *sqlast.CellRef) (int, bool) {
	mea := -1
	if x.Sheet == "" {
		mea = c.m.MeasureOrdinal(x.Measure)
	}
	if mea < 0 {
		return c.refLeaf(x)
	}
	if mea == c.r.Mea {
		c.fail(ruleVecNoSelfRead)
		return 0, false
	}
	for _, lf := range c.leaves {
		if lf.kind == leafCell && lf.cell == x {
			return lf.ord, true
		}
	}
	kerns, ok := c.qualKernels(x.Quals, c.m.NDby)
	if !ok {
		return 0, false
	}
	return c.addLeaf(vecLeaf{kind: leafCell, mea: mea, cell: x, qualKerns: kerns}), true
}

// refLeaf lowers a reference-sheet point read, unqualified or
// sheet-qualified. The sheet is read-only while the rules run, so the read
// is a pure function of its key, whichever order the cells fire in.
func (c *vecRuleCompiler) refLeaf(x *sqlast.CellRef) (int, bool) {
	rb, ok := c.m.refBinding(x)
	if !ok {
		return 0, false // the per-cell path owns the unknown-measure error
	}
	for _, lf := range c.leaves {
		if lf.kind == leafRef && lf.cell == x {
			return lf.ord, true
		}
	}
	kerns, ok := c.qualKernels(x.Quals, len(rb.sheet.Dims))
	if !ok {
		return 0, false
	}
	return c.addLeaf(vecLeaf{kind: leafRef, mea: rb.mea, ref: rb.sheet, cell: x, qualKerns: kerns}), true
}

// qualKernels compiles a point reference's qualifiers, one kernel per
// dimension of the sheet it reads, through the cvOnly hook.
func (c *vecRuleCompiler) qualKernels(quals []sqlast.DimQual, ndims int) ([]eval.ExprKernel, bool) {
	if len(quals) != ndims {
		return nil, false
	}
	kerns := make([]eval.ExprKernel, len(quals))
	for i := range quals {
		q := &quals[i]
		if q.Kind != sqlast.QualPoint || sqlast.HasSubquery(q.Val) {
			return nil, false
		}
		k := eval.CompileExprKernelExt(c.bs, q.Val, c.cvOnly)
		if !k.Valid() {
			return nil, false
		}
		kerns[i] = k
	}
	return kerns, true
}

// aggPartOK vets one qualifier expression or argument of an existential
// rule's aggregate, which the batch evaluates once per frame instead of
// once per target: it must be target-independent (no cv()), side-effect
// free (no subquery) and stable across the rule's own writes (no cell
// reads, no reference to the assigned measure).
func (c *vecRuleCompiler) aggPartOK(e sqlast.Expr) bool {
	if e == nil {
		return true
	}
	if sqlast.ContainsCurrentV(e) {
		c.fail(ruleVecNoCvQual)
		return false
	}
	if sqlast.HasSubquery(e) {
		return false
	}
	cells, nested := sqlast.CellRefs(e)
	if len(cells) > 0 || len(nested) > 0 {
		return false
	}
	meaName := c.m.Schema.Cols[c.r.Mea].Name
	for _, cr := range sqlast.ColumnRefs(e) {
		if cr.Name == meaName {
			c.fail(ruleVecNoSelfRead)
			return false
		}
	}
	return true
}

// aggLeaf lowers an aggregate reference. Single-cell rules always qualify
// (their instances are fully computed in scan (I) before any formula
// fires); existential rules qualify only when the aggregate is provably
// identical for every target of a frame, so computing it once per frame up
// front matches the per-target row path.
func (c *vecRuleCompiler) aggLeaf(x *sqlast.CellAgg) (int, bool) {
	for _, lf := range c.leaves {
		if lf.kind == leafAgg && lf.agg == x {
			return lf.ord, true
		}
	}
	if c.r.Existential {
		for _, q := range x.Quals {
			if !c.aggPartOK(q.Val) || !c.aggPartOK(q.Pred) ||
				!c.aggPartOK(q.Lo) || !c.aggPartOK(q.Hi) {
				return 0, false
			}
		}
		for _, a := range x.Args {
			if !c.aggPartOK(a) {
				return 0, false
			}
		}
	}
	return c.addLeaf(vecLeaf{kind: leafAgg, agg: x}), true
}

// compileVecRule decides one rule's batch form. The static gates mirror
// the per-cell machinery the batch cannot reproduce: fixpoint iteration
// observes intermediate states per cell, ORDER BY imposes a data-dependent
// firing order, IGNORE NAV rebinds NULL semantics the kernels don't model,
// and cyclic rules run under reference tracking.
func (m *Model) compileVecRule(r *Rule) *vecRuleProg {
	if m.Iterate != nil || m.SeqOrder {
		return &vecRuleProg{note: ruleVecNoIterate}
	}
	if m.IgnoreNav {
		return &vecRuleProg{note: ruleVecNoIgnoreNav}
	}
	if r.sccID >= 0 {
		return &vecRuleProg{note: ruleVecNoCyclic}
	}
	if len(r.OrderBy) > 0 {
		return &vecRuleProg{note: ruleVecNoOrderBy}
	}
	c := &vecRuleCompiler{m: m, r: r, bs: m.bs, base: m.Schema.Len()}
	c.qualPad = !r.Existential || len(r.cellAggs) > 0
	prog := &vecRuleProg{}
	if r.Existential {
		prog.preds = make([]eval.SelKernel, len(r.Quals))
		for i := range r.Quals {
			q := &r.Quals[i]
			for _, e := range []sqlast.Expr{q.Val, q.Lo, q.Hi} {
				if e != nil && sqlast.HasSubquery(e) {
					return &vecRuleProg{note: ruleVecNoUnsupported}
				}
			}
			if q.Kind == sqlast.QualPred {
				k := eval.CompileSelKernel(c.bs, q.Pred)
				if !k.Valid() {
					return &vecRuleProg{note: ruleVecNoUnsupported}
				}
				prog.preds[i] = k
			}
		}
	}
	rhs := eval.CompileExprKernelExt(c.bs, r.RHS, c.leafOrd)
	if !rhs.Valid() {
		note := c.failNote
		if note == "" {
			note = ruleVecNoUnsupported
		}
		return &vecRuleProg{note: note}
	}
	prog.rhs = rhs
	prog.leaves = c.leaves
	prog.note = ruleVecYes
	prog.cols = c.imageCols(prog)
	for _, o := range rhs.ColRefs(nil) {
		if o < c.base && !slices.Contains(prog.typed, o) {
			prog.typed = append(prog.typed, o)
		}
	}
	for _, lf := range c.leaves {
		if lf.kind == leafCell && !slices.Contains(prog.typed, lf.mea) {
			prog.typed = append(prog.typed, lf.mea)
		}
	}
	return prog
}

// imageCols collects the schema columns prog's kernels read. An existential
// rule also reads, straight from the image, the dimension column of every
// declarative qualifier and cv() leaf and the measure column every cell leaf
// gathers from; a single-cell rule takes those from its targets and the
// frame instead.
func (c *vecRuleCompiler) imageCols(prog *vecRuleProg) []int {
	refs := prog.rhs.ColRefs(nil)
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		for _, k := range lf.qualKerns {
			refs = k.ColRefs(refs)
		}
		if c.r.Existential {
			switch lf.kind {
			case leafCV:
				refs = append(refs, c.m.NPby+lf.dim)
			case leafCell:
				refs = append(refs, lf.mea)
			}
		}
	}
	if c.r.Existential {
		for i := range c.r.Quals {
			switch c.r.Quals[i].Kind {
			case sqlast.QualStar:
			case sqlast.QualPred:
				refs = prog.preds[i].ColRefs(refs)
			default:
				refs = append(refs, c.m.NPby+i)
			}
		}
	}
	var cols []int
	for _, o := range refs {
		if o < c.base && !slices.Contains(cols, o) {
			cols = append(cols, o)
		}
	}
	return cols
}

// buildVecRules populates the batch-rule registry. Like buildCompiled it
// runs once at the start of Run (after Analyze settles levels and SCCs)
// and is read-only afterwards, so PE goroutines share it without locking.
func (m *Model) buildVecRules() {
	if m.vecRules != nil {
		return
	}
	vr := make(map[*Rule]*vecRuleProg, len(m.Rules)) // alloc-ok: once per model
	for _, r := range m.Rules {
		vr[r] = m.compileVecRule(r)
	}
	m.vecRules = vr
}

// RuleVecNotes returns one EXPLAIN vectorization annotation per rule, in
// rule order. disabled maps a would-be "yes" to "no(disabled)" (the
// executor's ablation flags). Returns nil when the model fails analysis
// (the statement will fail elsewhere with the real error).
func (m *Model) RuleVecNotes(disabled bool) []string {
	if m.levels == nil {
		if err := m.Analyze(); err != nil {
			return nil
		}
	}
	m.buildVecRules()
	notes := make([]string, len(m.Rules))
	for i, r := range m.Rules {
		n := m.vecRules[r].note
		if disabled && n == ruleVecYes {
			n = ruleVecNoDisabled
		}
		notes[i] = n
	}
	return notes
}

// vecProg returns the rule's batch program, or nil before buildVecRules.
func (m *Model) vecProg(r *Rule) *vecRuleProg {
	return m.vecRules[r]
}

// vecRuleReady gates a batch attempt at runtime: the rule must have a
// compiled program, the ablation knob must be off, and the PE must be
// outside the per-cell-only execution modes (reference tracking under
// Auto-Cyclic, inverse maintenance under single-scan, assignment counting).
func (fe *frameEval) vecRuleReady(prog *vecRuleProg) bool {
	return prog != nil && prog.note == ruleVecYes &&
		fe.opts.Ablate.RulesVectorized() &&
		!fe.trackRefs && fe.maintained == nil && fe.assigned == nil
}

// vecApplyExistential fires an existential rule as one batch over fs, a run
// of consecutive frames of one bucket: all of them on the level-major path
// (evalBucket), the current frame alone otherwise. VecMinRows counts the
// rows of the whole run. handled=false means no state was touched (beyond
// state-equivalent left-side and aggregate evaluation) and the per-cell path
// must run, frame by frame; handled=true means every target cell of every
// frame holds the rule's result (or err aborted the statement).
func (fe *frameEval) vecApplyExistential(r *Rule, fs []*Frame) (bool, error) {
	prog := fe.m.vecProg(r)
	if !fe.vecRuleReady(prog) {
		return false, nil
	}
	total := 0
	for _, f := range fs {
		total += f.Len()
	}
	if total < fe.opts.vecMinRows() {
		return false, nil
	}
	// Per-frame constants, each under its own frame's partition context
	// exactly as the row path evaluates them: the left side's qualifier
	// values (matchTargets) and the aggregates, whose target independence
	// was proven at compile time. Any error falls back, and the row path
	// reproduces it. Aggregates run first: their partition scans may image
	// a single frame, which the bucket image below then replaces in the
	// cache for the rules that follow.
	nq := len(r.Quals)
	var consts []qualConst
	if slices.ContainsFunc(r.Quals, func(q Qual) bool { return q.Kind != sqlast.QualStar && q.Kind != sqlast.QualPred }) {
		consts = make([]qualConst, len(fs)*nq)
	}
	aggVals := make([][]types.Value, len(prog.leaves))
	for li := range prog.leaves {
		if prog.leaves[li].kind == leafAgg {
			aggVals[li] = make([]types.Value, len(fs))
		}
	}
	for i, f := range fs {
		fe.setFrame(f)
		if consts != nil {
			if err := fe.qualConsts(r, consts[i*nq:(i+1)*nq]); err != nil {
				return false, nil
			}
		}
		for li, vals := range aggVals {
			if vals == nil {
				continue
			}
			v, err := fe.evalCellAgg(fe.constCtx(), prog.leaves[li].agg)
			if err != nil {
				return false, nil
			}
			vals[i] = v
		}
	}
	img, offs, err := fe.image(fs, prog.cols)
	if err != nil {
		return true, err // context cancellation; the scan ticked like the row path
	}
	if slices.ContainsFunc(prog.typed, func(c int) bool { return img.Cols[c].Boxed != nil }) {
		return false, nil // e.g. INT and FLOAT values in one measure: per cell
	}
	n := img.NRows

	// Scan (II) as a selection: declarative qualifiers first (the row
	// matcher's own tests over image values, which hold the same bits, with
	// each frame's constants), then predicate kernels, positions ascending
	// throughout — frame by frame, the row path's target order.
	cur := colstore.GetSel(n)
	defer colstore.PutSel(cur)
	nxt := colstore.GetSel(n)
	defer colstore.PutSel(nxt)
	sel := (*cur)[:0]
	for i := range fs {
		var fc []qualConst
		if consts != nil {
			fc = consts[i*nq : (i+1)*nq]
		}
	rows:
		for ri := offs[i]; ri < offs[i+1]; ri++ {
			for qi := range r.Quals {
				q := &r.Quals[qi]
				if q.Kind == sqlast.QualStar || q.Kind == sqlast.QualPred {
					continue
				}
				v := img.Cols[fe.m.NPby+qi].Value(ri) // interp-ok: qualifier test reuses the row matcher's Equal/Compare verbatim
				if !q.matches(&fc[qi], v) {
					continue rows
				}
			}
			sel = append(sel, int32(ri))
		}
	}
	for i := range prog.preds {
		if !prog.preds[i].Valid() {
			continue
		}
		res := prog.preds[i].Run(img, nil, nil, sel, (*nxt)[:0])
		*cur, *nxt = *nxt, *cur
		sel = res
	}
	if len(sel) == 0 {
		return true, nil
	}
	// segs[i]:segs[i+1] is frame i's run of the ascending selection.
	segs := make([]int, len(fs)+1)
	for i, k := 0, 0; i < len(fs); i++ {
		for k < len(sel) && int(sel[k]) < offs[i+1] {
			k++
		}
		segs[i+1] = k
	}

	// Extension columns, in leaf order (a leaf's qualifiers read only
	// earlier leaves). cv() leaves alias the image's dimension columns (each
	// target's cv is its own row); partition constants and aggregates repeat
	// each frame's value over its rows. Unselected slots of the reference
	// and cell leaves stay NULL; the right side never reads them.
	ext := img.WithExtra(make([]*colstore.Column, len(prog.leaves)))
	perFrame := make([]types.Value, len(fs))
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		var col *colstore.Column
		switch lf.kind {
		case leafCV:
			col = img.Cols[fe.m.NPby+lf.dim]
		case leafPbyCV:
			for i, f := range fs {
				perFrame[i] = f.pby[lf.dim]
			}
			col = fe.spread(offs, perFrame)
		case leafNull:
			col = colstore.Broadcast(types.Null, n)
		case leafAgg:
			col = fe.spread(offs, aggVals[li])
		case leafRef:
			var ok bool
			if col, ok = fe.refColumn(ext, lf, sel); !ok {
				return false, nil
			}
		case leafCell:
			// One bulk probe of each row's own frame, then a gather of the
			// referenced measure (a miss gathers NULL — the row path's miss
			// value).
			keys, rows, ok := fe.keyCols(ext, lf, sel)
			if !ok {
				return false, nil
			}
			col = colstore.Gather(img.Cols[lf.mea], fe.probeFrames(fs, offs, segs, keys, rows, sel, n))
		}
		ext.Cols[lf.ord] = col
	}
	if _, ok := prog.rhs.OutKind(ext, nil); !ok || prog.rhs.MinCols() > len(ext.Cols) {
		return false, nil
	}
	vec, kerr := prog.rhs.Run(ext, nil, nil, sel)
	if kerr != nil {
		return false, nil // division by zero: the row path raises it with the rule label
	}
	// Write-back, frame by frame: an image row less its frame's offset is
	// the frame position (the selection is rewritten in place — nothing
	// reads it after the right side), and each frame's run of the ascending
	// selection is the per-cell firing order.
	for i, f := range fs {
		run := sel[segs[i]:segs[i+1]]
		for k := range run {
			run[k] -= int32(offs[i])
		}
		f.SetMeasureBulk(run, r.Mea, vec, segs[i])
	}
	return true, nil
}

// boxedScratch returns n NULL values of the PE's column-building scratch;
// columnOf turns them into an image column and hands them back.
func (fe *frameEval) boxedScratch(n int) []types.Value {
	if cap(fe.boxed) < n {
		fe.boxed = make([]types.Value, n)
	}
	return fe.boxed[:n]
}

// columnOf builds an image column from values taken out of boxedScratch —
// strings stored plain: the image lives for one batch — and clears them for
// the next use, unless the column keeps the slice (a mixed-kind column
// stores its values boxed), in which case the scratch is given up.
func (fe *frameEval) columnOf(vals []types.Value) *colstore.Column {
	c := colstore.FromValuesPlain(vals)
	if c.Boxed != nil {
		fe.boxed = nil
	} else {
		clear(vals)
	}
	return c
}

// spread builds the image column holding, over each frame's rows
// offs[i]:offs[i+1], that frame's value vals[i].
func (fe *frameEval) spread(offs []int, vals []types.Value) *colstore.Column {
	out := fe.boxedScratch(offs[len(vals)])
	for i, v := range vals {
		for r := offs[i]; r < offs[i+1]; r++ {
			out[r] = v
		}
	}
	return fe.columnOf(out)
}

// keyCols returns a cell or reference leaf's key image over sel: one column
// per dimension, and rows, where rows[k] is the row of those columns holding
// the key of sel[k]. When every qualifier is a bare column read (a cv() or
// reference leaf, a dimension) the key columns are tbl's own, read at sel[k],
// and nothing is gathered — their key bytes are those of the values the
// qualifiers evaluate to, as Column.AppendKey is types.AppendKey; otherwise
// the qualifier kernels run over sel into dense columns read at k. ok=false
// when a kernel is unsupported over tbl or fails; the row path then
// reproduces the failure.
func (fe *frameEval) keyCols(tbl *colstore.Table, lf *vecLeaf, sel []int32) (keys []*colstore.Column, rows []int32, ok bool) {
	keys = make([]*colstore.Column, len(lf.qualKerns))
	for qi, k := range lf.qualKerns {
		ord, bare := k.Column()
		if !bare {
			break
		}
		keys[qi] = tbl.Cols[ord]
		if qi == len(keys)-1 {
			return keys, sel, true
		}
	}
	for qi, k := range lf.qualKerns {
		if _, ok := k.OutKind(tbl, nil); !ok || k.MinCols() > len(tbl.Cols) {
			return nil, nil, false
		}
		vec, err := k.Run(tbl, nil, nil, sel)
		if err != nil {
			return nil, nil, false
		}
		keys[qi] = vec.Column()
	}
	return keys, fe.identity(len(sel)), true
}

// identity returns 0, 1, ..., n-1 out of the PE's scratch (read-only).
func (fe *frameEval) identity(n int) []int32 {
	for len(fe.iota) < n {
		fe.iota = append(fe.iota, int32(len(fe.iota)))
	}
	return fe.iota[:n]
}

// refColumn resolves a reference-sheet leaf over tbl: its key image over
// sel, one probe of the sheet's index per selected row (the key bytes are
// types.AppendKey's, as RefMeta.Load indexed them), and the read measure as a
// tbl.NRows-row column, NULL on a miss — the row path's miss value — and
// outside sel.
func (fe *frameEval) refColumn(tbl *colstore.Table, lf *vecLeaf, sel []int32) (*colstore.Column, bool) {
	keys, rows, ok := fe.keyCols(tbl, lf, sel)
	if !ok {
		return nil, false
	}
	vals := fe.boxedScratch(tbl.NRows)
	buf := fe.refKey
	for k, p := range sel {
		buf = buf[:0]
		for _, c := range keys {
			buf = c.AppendKey(buf, int(rows[k]))
		}
		if row, hit := lf.ref.Data[string(buf)]; hit {
			vals[p] = row[lf.mea]
		}
	}
	fe.refKey = buf
	return fe.columnOf(vals), true
}

// probeFrames resolves a main-sheet cell leaf over a run of frames imaged
// frame after frame: each frame's run of the selection, segs[i]:segs[i+1],
// probes that frame's own index with its keys (see keyCols for rows), and
// the result maps every image row to the image row of the cell it
// references, -1 on a miss and outside sel. The result lives in the PE's
// scratch until the next call.
func (fe *frameEval) probeFrames(fs []*Frame, offs, segs []int, keys []*colstore.Column, rows, sel []int32, n int) []int32 {
	full := slices.Grow(fe.full[:0], n)[:n]
	probed := slices.Grow(fe.probed[:0], len(sel))[:len(sel)]
	fe.full, fe.probed = full, probed
	for i := range full {
		full[i] = -1
	}
	for i, f := range fs {
		a, b := segs[i], segs[i+1]
		f.LookupBatch(keys, rows[a:b], probed[a:b])
		for k := a; k < b; k++ {
			if p := probed[k]; p >= 0 {
				full[sel[k]] = int32(offs[i]) + p
			}
		}
	}
	return full
}

// vecApplyPoints fires a prepared single-cell rule as one batch over its
// enumerated targets: probe (or UPSERT-append) every target in order,
// gather the target rows into a mini image, run the right-side kernel
// once, write back in target order. handled=false leaves the rule to the
// per-cell loop; UPSERT inserts performed before a fallback are
// state-equivalent (the per-cell path finds and reuses them: fresh rows
// hold NULL measures either way, and only the assigned measure is ever
// written).
func (fe *frameEval) vecApplyPoints(e *lsEntry) (bool, error) {
	r := e.rule
	prog := fe.m.vecProg(r)
	if !fe.vecRuleReady(prog) || len(e.targets) < fe.opts.vecMinRows() {
		return false, nil
	}
	poss := make([]int32, 0, len(e.targets))
	tis := make([]int, 0, len(e.targets))
	var seen posSet
targets:
	for ti, dims := range e.targets {
		// Trigger condition for promoted dimensions, as in applyPoint.
		for _, p := range fe.opts.Promoted {
			if !types.Equal(dims[p.Dby], fe.f.pby[p.Pby]) {
				continue targets
			}
		}
		pos, ok := fe.f.Lookup(dims)
		if !ok {
			if !r.Upsert {
				continue
			}
			pos = fe.f.Insert(fe.m, dims)
			fe.f.MarkUpdated(pos)
		}
		if seen.has(pos) {
			// Two targets addressing one cell: the per-cell path
			// interleaves the second target's reads with the first's
			// write; keep the rule per cell.
			return false, nil
		}
		seen.set(pos, fe.f.Len())
		poss = append(poss, int32(pos))
		tis = append(tis, ti)
	}
	nb := len(poss)
	if nb == 0 {
		return true, nil
	}
	// The mini image is built after every insert, so a target whose cell
	// reference hits a just-created row reads its NULL measures — exactly
	// what the per-cell path's probe returns at that point (self-reads
	// were rejected at compile time, so no batch read can observe a value
	// this rule writes). Only the schema columns some kernel actually reads
	// (prog.cols) are materialized; a rule whose right side is pure
	// cv()/cell/aggregate leaves gathers nothing here.
	cols := make([]*colstore.Column, fe.m.Schema.Len())
	if len(prog.cols) > 0 {
		bufs := make([][]types.Value, len(prog.cols))
		for i := range bufs {
			bufs[i] = make([]types.Value, nb)
		}
		for k, pos := range poss {
			row := fe.f.Row(int(pos))
			for i, c := range prog.cols {
				bufs[i][k] = row[c]
			}
		}
		for i, c := range prog.cols {
			cols[c] = colstore.FromValues(bufs[i])
		}
	}
	mini := &colstore.Table{NRows: nb, Cols: cols}
	ext := mini.WithExtra(make([]*colstore.Column, len(prog.leaves)))
	idSel := fe.identity(nb)
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		var col *colstore.Column
		switch lf.kind {
		case leafCV:
			// cv() comes from the target's values, not the row's: the key
			// encoding normalizes integral floats, so a looked-up row may
			// hold different bits than the target that found it.
			vals := make([]types.Value, nb)
			for k, ti := range tis {
				vals[k] = e.targets[ti][lf.dim]
			}
			col = colstore.FromValues(vals)
		case leafPbyCV:
			col = colstore.Broadcast(fe.f.pby[lf.dim], nb)
		case leafNull:
			col = colstore.Broadcast(types.Null, nb)
		case leafAgg:
			vals := make([]types.Value, nb)
			for k, ti := range tis {
				inst, ok := e.aggMaps[ti][lf.agg]
				if !ok {
					return false, nil
				}
				vals[k] = inst.acc.Result()
			}
			col = colstore.FromValues(vals)
		case leafRef:
			var ok bool
			if col, ok = fe.refColumn(ext, lf, idSel); !ok {
				return false, nil
			}
		case leafCell:
			keys, rows, ok := fe.keyCols(ext, lf, idSel)
			if !ok {
				return false, nil
			}
			probed := make([]int32, nb)
			fe.f.LookupBatch(keys, rows, probed)
			vals := make([]types.Value, nb)
			for k, pp := range probed {
				if pp >= 0 {
					vals[k] = fe.f.Row(int(pp))[lf.mea]
				}
			}
			col = colstore.FromValues(vals)
		}
		ext.Cols[lf.ord] = col
	}
	if _, ok := prog.rhs.OutKind(ext, nil); !ok || prog.rhs.MinCols() > len(ext.Cols) {
		return false, nil
	}
	vec, kerr := prog.rhs.Run(ext, nil, nil, idSel)
	if kerr != nil {
		return false, nil
	}
	fe.f.SetMeasureBulk(poss, r.Mea, vec, 0)
	return true, nil
}
