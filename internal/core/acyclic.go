package core

import (
	"fmt"
	"slices"
	"sort"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// lsEntry is one single-cell-left-side rule prepared for evaluation: its
// enumerated targets and, per target, the aggregate instances of its right
// side.
type lsEntry struct {
	rule    *Rule
	targets [][]types.Value
	// aggMaps[i] maps the rule's CellAgg nodes to instances for target i
	// (nil when the rule has none).
	aggMaps []map[*sqlast.CellAgg]*aggInstance
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
			if err := fe.applyPoint(e.rule, dims, e.aggMaps[ti]); err != nil {
				return err
			}
		}
	}
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
	defer fe.doneRow()
	fe.f.Each(fe.scanRow(), func(pos int, row types.Row) bool {
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
	entry := &lsEntry{rule: r, targets: targets, aggMaps: make([]map[*sqlast.CellAgg]*aggInstance, len(targets))}
	for ti, dims := range targets {
		if entry.aggMaps[ti], err = fe.buildAggs(r, dims); err != nil {
			return nil, err
		}
	}
	return entry, nil
}

// buildAggs builds the instances of r's aggregates for the target dims
// (nil when r has none), each under the partition binding with cv() bound
// to dims: an aggregate's qualifiers read partition constants, never the
// target row. The context captures dims, so instances of several targets
// can share one scan after later targets are bound.
func (fe *frameEval) buildAggs(r *Rule, dims []types.Value) (map[*sqlast.CellAgg]*aggInstance, error) {
	if len(r.cellAggs) == 0 {
		return nil, nil
	}
	copy(fe.cv, dims)
	ctx := fe.newCtx(fe.pad, slices.Clone(dims), nil)
	am := make(map[*sqlast.CellAgg]*aggInstance, len(r.cellAggs)) // alloc-ok: one per target of an aggregate-bearing rule
	for _, ca := range r.cellAggs {
		inst, err := fe.buildInstance(ctx, ca)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", r.Label, err)
		}
		am[ca] = inst
	}
	return am, nil
}

// targetAggs builds and computes r's aggregates for the target dims: probe
// instances through the access structure, the others in one shared
// partition scan. nil when r has none.
func (fe *frameEval) targetAggs(r *Rule, dims []types.Value) (map[*sqlast.CellAgg]*aggInstance, error) {
	am, err := fe.buildAggs(r, dims)
	if am == nil {
		return nil, err
	}
	var scans []*aggInstance
	for _, ca := range r.cellAggs {
		inst := am[ca]
		if !inst.probe {
			scans = append(scans, inst)
		} else if err := inst.runProbe(fe); err != nil {
			return nil, err
		}
	}
	if len(scans) > 0 {
		if err := fe.scanFeed(scans); err != nil {
			return nil, err
		}
	}
	return am, nil
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

// applyPoint fires a single-cell rule for one target, its aggregates
// computed in am.
func (fe *frameEval) applyPoint(r *Rule, dims []types.Value, am map[*sqlast.CellAgg]*aggInstance) error {
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
	copy(fe.cv, dims)
	return fe.fire(r, pos, am)
}

// fire evaluates r's right side for the target cell at pos — bound to its
// row (bindTarget) when it reads one, cv() reading fe.cv, each aggregate its
// instance in am — and assigns the result.
func (fe *frameEval) fire(r *Rule, pos int, am map[*sqlast.CellAgg]*aggInstance) error {
	ctx := fe.targetCtx()
	if r.readsRow {
		ctx = fe.bindTarget(pos)
	} else {
		ctx.Binding.Row = nil // nothing reads it: no row is boxed
	}
	fe.curAggs = am
	v, err := fe.eval(ctx, r.RHS)
	fe.curAggs = nil
	if err != nil {
		return fmt.Errorf("%s: %v", r.Label, err)
	}
	return fe.assignMeasure(pos, r.Mea, v)
}

// rowCV binds cv() to the dimension values of the row at pos: an
// existential target's.
func (fe *frameEval) rowCV(pos int) {
	for d := range fe.cv {
		fe.cv[d] = fe.f.value(pos, fe.m.NPby+d)
	}
}

// insertRow creates an UPSERTed cell and notifies convergence tracking.
func (fe *frameEval) insertRow(dims []types.Value) int {
	pos := fe.f.Insert(fe.m, dims)
	fe.f.MarkUpdated(pos)
	if fe.trackRefs {
		fe.changed = true // a new cell signals additional iterations
		fe.assigned[fe.f.flagKey(pos, fe.m.Schema.Len())] = true
	}
	return pos
}

// assignMeasure writes a measure, driving convergence detection.
func (fe *frameEval) assignMeasure(pos, mea int, v types.Value) error {
	fe.f.MarkUpdated(pos)
	changed, err := fe.f.SetMeasure(pos, mea, v)
	if err != nil {
		return err
	}
	if fe.trackRefs {
		fe.assigned[fe.f.flagKey(pos, mea)] = true
		if changed && (fe.f.Referenced(fe.gen, pos, mea) || fe.f.Referenced(1-fe.gen, pos, mea)) {
			fe.changed = true
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
// per cell: scan (II) finds the target rows, then each target computes its
// aggregates — scan (III) for the non-probe ones — and fires.
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
	for _, pos := range targets {
		if err := fe.tick(); err != nil {
			return err
		}
		fe.rowCV(pos)
		am, err := fe.targetAggs(r, fe.cv)
		if err != nil {
			return err
		}
		if err := fe.fire(r, pos, am); err != nil {
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
	// A predicate reads the candidate row as the right side reads its
	// target: a bare column, also inside a nested cell reference's
	// qualifier (c[t < s[t]]), reads the row. Only the columns the left
	// side reads (r.matchCols) are boxed into it.
	pctx := fe.targetCtx()
	buf := fe.scanRow()
	defer fe.doneRow()
	out := fe.targets[:0]
cands:
	for pos := range fe.f.Len() {
		if err := fe.tick(); err != nil {
			return nil, err
		}
		row := buf
		switch {
		case fe.spill || r.matchCols == nil:
			row = fe.f.Row(pos, buf) // a spilling frame's stored row
		default:
			for _, c := range r.matchCols {
				row[c] = fe.f.value(pos, c)
			}
		}
		for i := range r.Quals {
			q := &r.Quals[i]
			ok := true
			if q.Kind == sqlast.QualPred {
				if fe.spill {
					row = row.Clone() // alloc-ok: spilling stores only, once per candidate row
				}
				pctx.Binding.Row = row
				var err error
				if ok, err = fe.evalBool(pctx, q.Pred); err != nil {
					return nil, err
				}
			} else {
				ok = q.matches(&consts[i], row[fe.m.NPby+i])
			}
			if !ok {
				continue cands
			}
		}
		out = append(out, pos)
	}
	fe.targets = out
	return out, nil
}

// sortTargets orders existential targets by the rule's ORDER BY.
func (fe *frameEval) sortTargets(r *Rule, targets []int) error {
	type keyed struct {
		pos  int
		keys []types.Value
	}
	ks := make([]keyed, len(targets))
	for i, pos := range targets {
		fe.rowCV(pos)
		ctx := fe.bindTarget(pos)
		keys := make([]types.Value, len(r.OrderBy))
		for j, o := range r.OrderBy {
			v, err := fe.eval(ctx, o.Expr)
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
			c := types.Order(a.keys[k], b.keys[k])
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
