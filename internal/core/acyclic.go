package core

import (
	"fmt"
	"slices"
	"sort"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// runAutomatic executes the analysis plan for an AUTOMATIC ORDER
// spreadsheet over the current frame: plain levels run with the
// Auto-Acyclic algorithm (all aggregates of a level computed before its
// formulas, sharing one partition scan), SCC steps run with the Auto-Cyclic
// fixpoint algorithm. Only buckets evalBucket runs frame at a time come here
// (see levelMajor); the rest run level by level over the whole bucket.
func (fe *frameEval) runAutomatic() error {
	if fe.m.singleScan(fe.opts.Ablate) {
		return fe.runSingleScan()
	}
	for _, lv := range fe.m.levels {
		switch lv.kind {
		case stepLevel:
			if err := fe.runLevel(lv.rules, fe.own()); err != nil {
				return err
			}
		case stepSCC:
			if err := fe.runSCC(lv.rules); err != nil {
				return err
			}
		}
	}
	return nil
}

// lsEntry is one single-cell-left-side rule prepared for evaluation: its
// enumerated targets and, per target, the aggregate instances of its right
// side.
type lsEntry struct {
	rule    *Rule
	targets [][]types.Value
	// aggMaps[i] maps the rule's CellAgg nodes to instances for target i.
	aggMaps []map[*sqlast.CellAgg]*aggInstance
	ctxs    []*eval.Context
}

// runLevel evaluates one level over fs, a run of one bucket's frames, per
// the Auto-Acyclic algorithm: first the single-cell rules (LS), frame by
// frame, then each existential rule (LE) in turn over every frame — as one
// batch when its kernels apply, else frame by frame per cell. Frames are
// independent, so this level → rule → frame order gives every frame the
// state the frame-at-a-time order gives it; only which of several failing
// frames reports its error can differ.
func (fe *frameEval) runLevel(idxs []int, fs []*Frame) error {
	for _, ri := range idxs {
		if !fe.m.Rules[ri].Existential {
			for _, f := range fs {
				if err := fe.enter(f); err != nil {
					return err
				}
				if err := fe.runPoints(idxs); err != nil {
					return err
				}
			}
			break // one pass per frame runs every single-cell rule of the level
		}
	}
	for _, ri := range idxs {
		if r := fe.m.Rules[ri]; r.Existential {
			if err := fe.applyExistential(r, fs); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPoints evaluates the single-cell rules (LS) of one level over the
// current frame: their aggregates computed up front, scan-mode instances
// sharing one partition scan (I), then each rule as one batch when its
// kernels apply (see vecrules.go), per cell otherwise.
func (fe *frameEval) runPoints(idxs []int) error {
	var ls []*lsEntry
	for _, ri := range idxs {
		r := fe.m.Rules[ri]
		if r.Existential {
			continue
		}
		entry, err := fe.prepareLS(r)
		if err != nil {
			return err
		}
		ls = append(ls, entry)
	}

	// Scan (I): compute every scan-mode aggregate of the level in one pass.
	var scanInsts []*aggInstance
	for _, e := range ls {
		for _, am := range e.aggMaps {
			for _, inst := range am {
				if inst.probe {
					if err := inst.runProbe(fe); err != nil {
						return err
					}
				} else {
					scanInsts = append(scanInsts, inst)
				}
			}
		}
	}
	if len(scanInsts) > 0 {
		if err := fe.scanFeed(scanInsts); err != nil {
			return err
		}
	}

	for _, e := range ls {
		handled, err := fe.vecApplyPoints(e)
		if err != nil {
			return err
		}
		fe.opts.Stats.countRule(handled, 1)
		if handled {
			continue
		}
		for ti, dims := range e.targets {
			fe.curAggs = e.aggMaps[ti]
			if err := fe.applyPoint(e.rule, dims, e.ctxs[ti]); err != nil {
				return err
			}
		}
	}
	fe.curAggs = nil
	return nil
}

// scanFeed performs one partition scan, feeding every matching row to every
// instance. When every instance has a vectorized form the scan runs as batch
// kernels over a columnar snapshot instead (see vecscan.go) — same state,
// bit for bit.
func (fe *frameEval) scanFeed(insts []*aggInstance) error {
	if handled, err := fe.vecScanFeed(insts); handled {
		fe.opts.Stats.countScan(true)
		return err
	}
	fe.opts.Stats.countScan(false)
	var ferr error
	fe.f.Each(func(pos int, row types.Row) bool {
		if ferr = fe.tick(); ferr != nil {
			return false
		}
		for _, inst := range insts {
			ok, err := inst.match(row)
			if err != nil {
				ferr = err
				return false
			}
			if !ok {
				continue
			}
			if err := inst.feed(fe, pos, row); err != nil {
				ferr = err
				return false
			}
		}
		return true
	})
	return ferr
}

// prepareLS enumerates a single-cell rule's targets and builds the
// aggregate instances of its right side for each target.
func (fe *frameEval) prepareLS(r *Rule) (*lsEntry, error) {
	targets, err := fe.ruleTargets(r)
	if err != nil {
		return nil, err
	}
	entry := &lsEntry{rule: r, targets: targets}
	cellAggs := r.cellAggs
	for _, dims := range targets {
		ctx := fe.targetCtx(r, dims)
		var am map[*sqlast.CellAgg]*aggInstance
		if len(cellAggs) > 0 {
			am = make(map[*sqlast.CellAgg]*aggInstance, len(cellAggs)) // alloc-ok: one per target of an aggregate-bearing rule
		}
		for _, ca := range cellAggs {
			inst, err := fe.buildInstance(ctx, ca)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", r.Label, err)
			}
			am[ca] = inst
		}
		entry.aggMaps = append(entry.aggMaps, am)
		entry.ctxs = append(entry.ctxs, ctx)
	}
	return entry, nil
}

// targetCtx builds the evaluation context for one formula target, with cv()
// bound to the target's dimension values.
func (fe *frameEval) targetCtx(r *Rule, dims []types.Value) *eval.Context {
	copy(fe.cv, dims)
	// The context must capture the cv values, not share fe.cv (multiple
	// targets are prepared before any is evaluated).
	bound := append([]types.Value(nil), dims...)
	ctx := fe.newCtx()
	ctx.CurrentV = func(dim string) (types.Value, error) {
		if d := fe.m.DimOrdinal(dim); d >= 0 {
			return bound[d], nil
		}
		if p := fe.m.PbyOrdinal(dim); p >= 0 {
			return fe.f.pby[p], nil
		}
		return types.Null, fmt.Errorf("cv(%s): unknown dimension", dim)
	}
	return ctx
}

// ruleTargets enumerates the target cells of a non-existential rule: the
// cartesian product of each qualifier's value list.
func (fe *frameEval) ruleTargets(r *Rule) ([][]types.Value, error) {
	lists := make([][]types.Value, len(r.Quals))
	ctx := fe.constCtx()
	for i := range r.Quals {
		q := &r.Quals[i]
		switch q.Kind {
		case sqlast.QualPoint:
			v, err := fe.eval(ctx, q.Val)
			if err != nil {
				return nil, fmt.Errorf("%s: left side: %v", r.Label, err)
			}
			lists[i] = []types.Value{v}
		case sqlast.QualForIn:
			lists[i] = q.forCache
		default:
			return nil, fmt.Errorf("%s: internal: existential qualifier in point rule", r.Label)
		}
	}
	var out [][]types.Value
	dims := make([]types.Value, len(lists))
	var walk func(d int)
	walk = func(d int) {
		if d == len(lists) {
			out = append(out, append([]types.Value(nil), dims...))
			return
		}
		for _, v := range lists[d] {
			dims[d] = v
			walk(d + 1)
		}
	}
	walk(0)
	return out, nil
}

// applyPoint fires a single-cell rule for one target.
func (fe *frameEval) applyPoint(r *Rule, dims []types.Value, ctx *eval.Context) error {
	// Trigger condition for dimensions promoted into the distribution key:
	// the target must belong to this partition's data (§5, UPSERT case).
	for _, p := range fe.opts.Promoted {
		if !types.Equal(dims[p.Dby], fe.f.pby[p.Pby]) {
			return nil
		}
	}
	pos, ok := fe.f.Lookup(dims)
	if !ok {
		if !r.Upsert {
			return nil // UPDATE ignores nonexistent cells
		}
		pos = fe.insertRow(dims)
	}
	row := fe.f.Row(pos).Clone() // alloc-ok: per-cell path; the right side may scan the partition while the row is bound
	rctx := *ctx
	rctx.Binding = &eval.Binding{BS: fe.bs, Row: row}
	v, err := fe.eval(&rctx, r.RHS)
	if err != nil {
		return fmt.Errorf("%s: %v", r.Label, err)
	}
	return fe.assignMeasure(pos, r.Mea, v)
}

// insertRow creates an UPSERTed cell and notifies maintenance and
// convergence tracking.
func (fe *frameEval) insertRow(dims []types.Value) int {
	pos := fe.f.Insert(fe.m, dims)
	fe.f.MarkUpdated(pos)
	if fe.trackRefs {
		fe.changed = true // a new cell signals additional iterations
	}
	if fe.assigned != nil {
		fe.assigned[fe.f.flagKey(pos, fe.m.Schema.Len())] = true
	}
	if fe.maintained != nil {
		row := fe.f.Row(pos)
		for _, inst := range fe.maintained {
			if err := inst.onInsert(fe, pos, row); err != nil {
				// Maintenance errors surface on the next assignment; in
				// practice instances never error on insert because their
				// matchers were validated during the build scan.
				_ = err
			}
		}
	}
	return pos
}

// assignMeasure writes a measure, driving convergence detection and
// aggregate maintenance.
func (fe *frameEval) assignMeasure(pos, mea int, v types.Value) error {
	fe.f.MarkUpdated(pos)
	oldV, changed := fe.f.write(pos, mea, v)
	if fe.assigned != nil {
		fe.assigned[fe.f.flagKey(pos, mea)] = true
	}
	if changed && fe.trackRefs {
		if fe.f.Referenced(fe.gen, pos, mea) || fe.f.Referenced(1-fe.gen, pos, mea) {
			fe.changed = true
		}
	}
	if changed && fe.maintained != nil {
		row := fe.f.Row(pos)
		for _, inst := range fe.maintained {
			if err := inst.onWrite(fe, row, mea, oldV, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyExistential fires an existential rule over fs, a run of one bucket's
// frames: one batch when its kernels apply (vecApplyExistential), otherwise
// per cell, frame by frame.
func (fe *frameEval) applyExistential(r *Rule, fs []*Frame) error {
	if handled, err := fe.vecApplyExistential(r, fs); handled {
		fe.opts.Stats.countRule(true, len(fs))
		return err
	}
	for _, f := range fs {
		if err := fe.enter(f); err != nil {
			return err
		}
		fe.opts.Stats.countRule(false, 1)
		if err := fe.applyExistentialCells(r); err != nil {
			return err
		}
	}
	return nil
}

// applyExistentialCells fires an existential rule over the current frame,
// per cell: scan (II) finds the target rows, then each target evaluates its
// right side — with scan (III) for any non-probe aggregates.
func (fe *frameEval) applyExistentialCells(r *Rule) error {
	targets, err := fe.matchTargets(r)
	if err != nil {
		return err
	}
	if len(r.OrderBy) > 0 {
		if err := fe.sortTargets(r, targets); err != nil {
			return err
		}
	}
	cellAggs := r.cellAggs
	if len(cellAggs) == 0 {
		// Fast path: no aggregates, so one shared context serves every
		// target — cv() reads fe.cv, rebound per row.
		ctx, binding := fe.boundCtx()
		for _, pos := range targets {
			if err := fe.tick(); err != nil {
				return err
			}
			row := fe.f.Row(pos)
			copy(fe.cv, row[fe.m.NPby:fe.m.NPby+fe.m.NDby])
			binding.Row = row
			v, err := fe.eval(ctx, r.RHS)
			if err != nil {
				return fmt.Errorf("%s: %v", r.Label, err)
			}
			if err := fe.assignMeasure(pos, r.Mea, v); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pos := range targets {
		row := fe.f.Row(pos).Clone() // alloc-ok: aggregate-bearing rule on the per-cell path; held across partition scans
		dims := make([]types.Value, fe.m.NDby)
		copy(dims, row[fe.m.NPby:fe.m.NPby+fe.m.NDby])
		ctx := fe.targetCtx(r, dims)
		if len(cellAggs) > 0 {
			am := make(map[*sqlast.CellAgg]*aggInstance, len(cellAggs)) // alloc-ok: as the row above
			var scans []*aggInstance
			for _, ca := range cellAggs {
				inst, err := fe.buildInstance(ctx, ca)
				if err != nil {
					return fmt.Errorf("%s: %v", r.Label, err)
				}
				if inst.probe {
					if err := inst.runProbe(fe); err != nil {
						return err
					}
				} else {
					scans = append(scans, inst)
				}
				am[ca] = inst
			}
			if len(scans) > 0 {
				if err := fe.scanFeed(scans); err != nil {
					return err
				}
			}
			fe.curAggs = am
		}
		rctx := *ctx
		rctx.Binding = &eval.Binding{BS: fe.bs, Row: row}
		v, err := fe.eval(&rctx, r.RHS)
		fe.curAggs = nil
		if err != nil {
			return fmt.Errorf("%s: %v", r.Label, err)
		}
		if err := fe.assignMeasure(pos, r.Mea, v); err != nil {
			return err
		}
	}
	return nil
}

// qualConst holds the values an existential left-side qualifier compares
// against, evaluated once per rule application.
type qualConst struct {
	val    types.Value // QualPoint
	lo, hi types.Value // QualRange
}

// qualConsts evaluates the constant parts of r's left side under the
// current frame, in qualifier order, into consts (one slot per qualifier;
// star, predicate and FOR-IN slots are left alone).
func (fe *frameEval) qualConsts(r *Rule, consts []qualConst) error {
	ctx := fe.constCtx()
	for i := range r.Quals {
		q := &r.Quals[i]
		var err error
		switch q.Kind {
		case sqlast.QualPoint:
			consts[i].val, err = fe.eval(ctx, q.Val)
		case sqlast.QualRange:
			if consts[i].lo, err = fe.eval(ctx, q.Lo); err == nil {
				consts[i].hi, err = fe.eval(ctx, q.Hi)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: left side: %v", r.Label, err)
		}
	}
	return nil
}

// matches tests one dimension value against a declarative qualifier (point,
// range, FOR-IN list). Star and predicate qualifiers are not its business:
// it reports true for them.
func (q *Qual) matches(c *qualConst, v types.Value) bool {
	switch q.Kind {
	case sqlast.QualPoint:
		return types.Equal(v, c.val)
	case sqlast.QualRange:
		if v.IsNull() || c.lo.IsNull() || c.hi.IsNull() {
			return false
		}
		cl := types.Compare(v, c.lo)
		if cl < 0 || (cl == 0 && !q.LoIncl) {
			return false
		}
		ch := types.Compare(v, c.hi)
		return ch < 0 || (ch == 0 && q.HiIncl)
	case sqlast.QualForIn:
		for _, fv := range q.forCache {
			if types.Equal(v, fv) {
				return true
			}
		}
		return false
	}
	return true
}

// matchTargets scans the partition for rows matching an existential left
// side. The result lives in the PE's scratch until the next call.
func (fe *frameEval) matchTargets(r *Rule) ([]int, error) {
	consts := slices.Grow(fe.consts[:0], len(r.Quals))[:len(r.Quals)]
	fe.consts = consts
	if err := fe.qualConsts(r, consts); err != nil {
		return nil, err
	}
	// Hoisted per rule: only the row binding varies per row.
	pctx, pbind := &fe.predCtx, &fe.predBind
	*pctx, *pbind = *fe.constCtx(), eval.Binding{BS: fe.bs}
	pctx.Binding = pbind
	out := fe.targets[:0]
	var ferr error
	fe.f.Each(func(pos int, row types.Row) bool {
		if ferr = fe.tick(); ferr != nil {
			return false
		}
		for i := range r.Quals {
			q := &r.Quals[i]
			var ok bool
			if q.Kind == sqlast.QualPred {
				pbind.Row = row
				ok, ferr = fe.evalBool(pctx, q.Pred)
			} else {
				ok = q.matches(&consts[i], row[fe.m.NPby+i])
			}
			if ferr != nil {
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, pos)
		return true
	})
	fe.targets = out
	return out, ferr
}

// sortTargets orders existential targets by the rule's ORDER BY.
func (fe *frameEval) sortTargets(r *Rule, targets []int) error {
	type keyed struct {
		pos  int
		keys []types.Value
	}
	ks := make([]keyed, len(targets))
	ctx := fe.constCtx()
	for i, pos := range targets {
		row := fe.f.Row(pos).Clone() // alloc-ok: ORDER BY rules only, once per target
		rctx := *ctx
		rctx.Binding = &eval.Binding{BS: fe.bs, Row: row}
		keys := make([]types.Value, len(r.OrderBy))
		for j, o := range r.OrderBy {
			v, err := fe.eval(&rctx, o.Expr)
			if err != nil {
				return fmt.Errorf("%s: ORDER BY: %v", r.Label, err)
			}
			keys[j] = v
		}
		ks[i] = keyed{pos: pos, keys: keys}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		for k := range a.keys {
			c := types.Compare(a.keys[k], b.keys[k])
			if r.OrderBy[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return a.pos < b.pos
	})
	for i := range ks {
		targets[i] = ks[i].pos
	}
	return nil
}
