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
// enumerated targets of a single-cell rule, applyExistential over the scan
// (II) matches of an existential rule — are replaced, for rules on the
// kernel domain, by one batch per rule:
//
//  1. the frame is snapshotted into a columnar image (frameImage, shared
//     with the batch aggregate scan) — or, for single-cell rules, the
//     target rows are gathered into a mini image after every UPSERT miss
//     has been appended in target order;
//  2. the left side becomes a selection: declarative qualifiers run the
//     row matcher's own types.Equal / NULL-rejecting types.Compare tests
//     over the image, predicate qualifiers run as selection kernels
//     (eval.CompileSelKernel — TRUE-set identical to evalBool);
//  3. the right side runs as one expression kernel
//     (eval.CompileExprKernelExt) whose extension leaves resolve what the
//     schema cannot: cv() becomes a dimension-column read (or a broadcast
//     PBY constant), an aggregate becomes a broadcast of its precomputed
//     accumulator result, and a point cell reference becomes qualifier
//     kernels producing key columns, one Frame.LookupBatch bulk probe over
//     them, and a columnar gather of the referenced measure — the paper's
//     F1 probe unfolding done once per rule instead of once per cell;
//  4. the result vector is written back with Frame.SetMeasureBulk, in the
//     per-cell path's exact cell order with its exact compare-then-clone
//     assignment semantics.
//
// The decision is per rule and conservative: ITERATE/sequential models,
// cyclic (SCC) rules, ORDER BY, IGNORE NAV, reference-sheet reads,
// self-reading cell references, cv() inside aggregate qualifiers and
// anything else off the kernel domain keeps the rule on the per-cell path,
// annotated with a reason EXPLAIN surfaces. At runtime any batch-stage
// error or unsupported column representation falls back before a single
// measure is written, so the per-cell path reproduces results — and error
// text and error position — exactly. Ablation.DisableVectorizedRules
// ablates the layer; RunOptions.Stats counts the decisions.

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
// per rule application (per frame), one Scan tick per aggregate partition
// scan. Counters are atomic so parallel PEs share one struct.
type VecStats struct {
	RuleBatch atomic.Int64
	RuleRow   atomic.Int64
	ScanBatch atomic.Int64
	ScanRow   atomic.Int64
}

// countRule records one rule application (nil-safe).
func (s *VecStats) countRule(batch bool) {
	if s == nil {
		return
	}
	if batch {
		s.RuleBatch.Add(1)
	} else {
		s.RuleRow.Add(1)
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
	leafAgg          // aggregate reference (accumulator precomputed)
	leafNull         // bare dim/measure column reference (NULL per target)
)

// vecLeaf is one extension leaf of a rule's right-side kernel.
type vecLeaf struct {
	kind int
	// ord is the leaf's column ordinal in the extended image
	// (Schema.Len() + leaf index).
	ord int
	// dim is the DBY ordinal (leafCV) or PBY ordinal (leafPbyCV).
	dim int
	// mea is the referenced measure's working-schema ordinal (leafCell).
	mea  int
	cell *sqlast.CellRef
	agg  *sqlast.CellAgg
	// qualKerns computes the cell reference's point-qualifier values, one
	// kernel per DBY dimension; their output columns are the LookupBatch
	// key image (leafCell).
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
	// frame's rows, each once: what frameImage (existential rules) or the
	// target mini image (single-cell rules) must materialise.
	cols []int
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
	// frame row (applyPoint/applyExistential), so reading the image column
	// at the same ordinal is exactly the interpreter's value — dims and
	// measures alike (a measure read is the cell's own pre-write value;
	// duplicate targets force the per-cell path, so no batch target is
	// written before it is read).
	return 0, false
}

// cvOnly is the restricted hook for cell-reference qualifier kernels:
// only cv() and bare column references resolve, so a nested cell reference
// or aggregate inside a qualifier keeps the whole rule per-cell.
func (c *vecRuleCompiler) cvOnly(e sqlast.Expr) (int, bool) {
	switch x := e.(type) {
	case *sqlast.CurrentV:
		return c.cvLeaf(x)
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

// cellLeaf lowers a main-sheet point reference. Reference-sheet lookups
// and self-reads (a reference back to the assigned measure, whose value
// changes as the rule fires cell by cell) decline.
func (c *vecRuleCompiler) cellLeaf(x *sqlast.CellRef) (int, bool) {
	if x.Sheet != "" {
		return 0, false
	}
	mea := c.m.MeasureOrdinal(x.Measure)
	if mea < 0 {
		return 0, false // resolves to a reference sheet
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
	if len(x.Quals) != c.m.NDby {
		return 0, false
	}
	kerns := make([]eval.ExprKernel, len(x.Quals))
	for i := range x.Quals {
		q := &x.Quals[i]
		if q.Kind != sqlast.QualPoint || sqlast.HasSubquery(q.Val) {
			return 0, false
		}
		k := eval.CompileExprKernelExt(c.bs, q.Val, c.cvOnly)
		if !k.Valid() {
			return 0, false
		}
		kerns[i] = k
	}
	return c.addLeaf(vecLeaf{kind: leafCell, mea: mea, cell: x, qualKerns: kerns}), true
}

// aggPartOK vets one qualifier expression or argument of an existential
// rule's aggregate, which the batch evaluates once per rule instead of
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
// identical for every target, so computing it once up front matches the
// per-target row path.
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
// compiled program, the ablation knob must be off, and the frame must be
// outside the per-cell-only execution modes (reference tracking under
// Auto-Cyclic, inverse maintenance under single-scan, assignment counting).
func (fe *frameEval) vecRuleReady(prog *vecRuleProg) bool {
	return prog != nil && prog.note == ruleVecYes &&
		fe.opts.Ablate.RulesVectorized() &&
		!fe.trackRefs && fe.maintained == nil && fe.assigned == nil
}

// vecApplyExistential fires an existential rule as one batch.
// handled=false means no state was touched (beyond state-equivalent
// aggregate computation) and the per-cell path must run; handled=true
// means every target cell holds the rule's result (or err aborted the
// statement).
func (fe *frameEval) vecApplyExistential(r *Rule) (bool, error) {
	prog := fe.m.vecProg(r)
	if !fe.vecRuleReady(prog) || fe.f.Len() < fe.opts.vecMinRows() {
		return false, nil
	}
	// Left-side constants, evaluated once exactly like matchTargets; any
	// error falls back so the row path reproduces it.
	consts, err := fe.qualConsts(r)
	if err != nil {
		return false, nil
	}
	ctx := fe.constCtx()
	img, err := fe.frameImage(prog.cols)
	if err != nil {
		return true, err // context cancellation; the scan ticked like the row path
	}
	n := img.NRows

	// Scan (II) as a selection: declarative qualifiers first (the row
	// matcher's own tests over image values, which hold the same bits),
	// then predicate kernels, positions ascending throughout — the row
	// path's target order.
	cur := colstore.GetSel(n)
	defer colstore.PutSel(cur)
	nxt := colstore.GetSel(n)
	defer colstore.PutSel(nxt)
	sel := (*cur)[:0]
rows:
	for ri := 0; ri < n; ri++ {
		for i := range r.Quals {
			q := &r.Quals[i]
			if q.Kind == sqlast.QualStar || q.Kind == sqlast.QualPred {
				continue
			}
			v := img.Cols[fe.m.NPby+i].Value(ri) // interp-ok: qualifier test reuses the row matcher's Equal/Compare verbatim
			if !q.matches(&consts[i], v) {
				continue rows
			}
		}
		sel = append(sel, int32(ri))
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

	// Extension columns. cv() leaves alias the image's dimension columns
	// (each target's cv is its own row); aggregates compute once — their
	// target independence was proven at compile time.
	extTbl := img.WithExtra(make([]*colstore.Column, len(prog.leaves)))
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		switch lf.kind {
		case leafCV:
			extTbl.Cols[lf.ord] = img.Cols[fe.m.NPby+lf.dim]
		case leafPbyCV:
			extTbl.Cols[lf.ord] = colstore.Broadcast(fe.f.pby[lf.dim], n)
		case leafNull:
			extTbl.Cols[lf.ord] = colstore.Broadcast(types.Null, n)
		case leafAgg:
			inst, err := fe.buildInstance(ctx, lf.agg)
			if err != nil {
				return false, nil
			}
			if inst.probe {
				if err := inst.runProbe(fe); err != nil {
					return false, nil
				}
			} else if err := fe.scanFeed([]*aggInstance{inst}); err != nil {
				return false, nil
			}
			extTbl.Cols[lf.ord] = colstore.Broadcast(inst.acc.Result(), n)
		}
	}
	// Cell leaves: qualifier kernels build the key image over the
	// selection, one bulk probe resolves every target's reference, and a
	// gather of the referenced measure becomes the leaf column (a miss
	// gathers NULL — the row path's miss value). Unselected slots stay
	// NULL; the right side never reads them.
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		if lf.kind != leafCell {
			continue
		}
		keyCols := make([]*colstore.Column, len(lf.qualKerns))
		for qi := range lf.qualKerns {
			k := lf.qualKerns[qi]
			if _, ok := k.OutKind(extTbl, nil); !ok || k.MinCols() > len(extTbl.Cols) {
				return false, nil
			}
			vec, kerr := k.Run(extTbl, nil, nil, sel)
			if kerr != nil {
				return false, nil
			}
			keyCols[qi] = vec.Column()
		}
		probed := make([]int32, len(sel))
		fe.f.LookupBatch(keyCols, probed)
		full := make([]int32, n)
		for i := range full {
			full[i] = -1
		}
		for k, p := range sel {
			full[p] = probed[k]
		}
		extTbl.Cols[lf.ord] = colstore.Gather(img.Cols[lf.mea], full)
	}
	if _, ok := prog.rhs.OutKind(extTbl, nil); !ok || prog.rhs.MinCols() > len(extTbl.Cols) {
		return false, nil
	}
	vec, kerr := prog.rhs.Run(extTbl, nil, nil, sel)
	if kerr != nil {
		return false, nil // division by zero: the row path raises it with the rule label
	}
	vals := make([]types.Value, len(sel))
	for k := range vals {
		vals[k] = vec.BoxValue(k)
	}
	// Image row index == frame position (frameImage appends in Each
	// order), so the ascending selection is both the position vector and
	// the per-cell firing order.
	fe.f.SetMeasureBulk(sel, r.Mea, vals)
	return true, nil
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
	extTbl := mini.WithExtra(make([]*colstore.Column, len(prog.leaves)))
	idSel := make([]int32, nb)
	for i := range idSel {
		idSel[i] = int32(i)
	}
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		switch lf.kind {
		case leafCV:
			// cv() comes from the target's values, not the row's: the key
			// encoding normalizes integral floats, so a looked-up row may
			// hold different bits than the target that found it.
			vals := make([]types.Value, nb)
			for k, ti := range tis {
				vals[k] = e.targets[ti][lf.dim]
			}
			extTbl.Cols[lf.ord] = colstore.FromValues(vals)
		case leafPbyCV:
			extTbl.Cols[lf.ord] = colstore.Broadcast(fe.f.pby[lf.dim], nb)
		case leafNull:
			extTbl.Cols[lf.ord] = colstore.Broadcast(types.Null, nb)
		case leafAgg:
			vals := make([]types.Value, nb)
			for k, ti := range tis {
				inst, ok := e.aggMaps[ti][lf.agg]
				if !ok {
					return false, nil
				}
				vals[k] = inst.acc.Result()
			}
			extTbl.Cols[lf.ord] = colstore.FromValues(vals)
		}
	}
	for li := range prog.leaves {
		lf := &prog.leaves[li]
		if lf.kind != leafCell {
			continue
		}
		keyCols := make([]*colstore.Column, len(lf.qualKerns))
		for qi := range lf.qualKerns {
			k := lf.qualKerns[qi]
			if _, ok := k.OutKind(extTbl, nil); !ok || k.MinCols() > len(extTbl.Cols) {
				return false, nil
			}
			vec, kerr := k.Run(extTbl, nil, nil, idSel)
			if kerr != nil {
				return false, nil
			}
			keyCols[qi] = vec.Column()
		}
		probed := make([]int32, nb)
		fe.f.LookupBatch(keyCols, probed)
		vals := make([]types.Value, nb)
		for k, pp := range probed {
			if pp < 0 {
				vals[k] = types.Null
			} else {
				vals[k] = fe.f.Row(int(pp))[lf.mea]
			}
		}
		extTbl.Cols[lf.ord] = colstore.FromValues(vals)
	}
	if _, ok := prog.rhs.OutKind(extTbl, nil); !ok || prog.rhs.MinCols() > len(extTbl.Cols) {
		return false, nil
	}
	vec, kerr := prog.rhs.Run(extTbl, nil, nil, idSel)
	if kerr != nil {
		return false, nil
	}
	vals := make([]types.Value, nb)
	for k := range vals {
		vals[k] = vec.BoxValue(k)
	}
	fe.f.SetMeasureBulk(poss, r.Mea, vals)
	return true, nil
}
