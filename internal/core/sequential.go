package core

import (
	"fmt"
	"slices"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// runModel runs the analysis plan over fs, a run of one bucket's frames:
// once, or under ITERATE pass after pass over the frames still iterating.
// Partitions never see each other, so a pass is the model's levels over
// every active frame, previous() reads each frame's own snapshot taken
// before the pass, and a frame whose UNTIL holds after a pass leaves the
// active set; the statement's passes end when the set is empty or after
// ITERATE(n) of them.
func (fe *frameEval) runModel(fs []*Frame) error {
	it := fe.m.Iterate
	if it == nil {
		return fe.runSteps(fs)
	}
	active := append(fe.active[:0], fs...)
	defer func() { fe.active = active[:0] }()
	for pass := 0; pass < it.N && len(active) > 0; pass++ {
		// Cancellation point: ITERATE counts can be enormous (the clause
		// allows ITERATE(1e9)), so every pass polls the context.
		if err := fe.opts.ctxErr(); err != nil {
			return err
		}
		if it.Until != nil {
			if err := fe.snapshotPrevious(active); err != nil {
				return err
			}
		}
		if err := fe.runSteps(active); err != nil {
			return err
		}
		if it.Until != nil {
			var err error
			if active, err = fe.untilHolds(active); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSteps runs every step of the analysis plan once over fs. A plain level
// runs level → rule → frame (runLevel); a cyclic step runs its fixpoint
// frame by frame, each frame with its own convergence state. Under ITERATE
// a cyclic step is one more level: the passes are the iteration.
func (fe *frameEval) runSteps(fs []*Frame) error {
	for _, lv := range fe.m.levels {
		if lv.kind != stepSCC || fe.m.Iterate != nil {
			if err := fe.runLevel(lv.rules, fs); err != nil {
				return err
			}
			continue
		}
		for i, f := range fs {
			if err := fe.enter(f); err != nil {
				return err
			}
			if err := fe.runSCC(lv.rules, fs[i:i+1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshotPrevious records, before a pass, the values previous(cell) reports
// in each active frame's UNTIL condition: len(prevCells) values per frame.
func (fe *frameEval) snapshotPrevious(active []*Frame) error {
	cells := fe.m.prevCells
	fe.prevs = slices.Grow(fe.prevs[:0], len(active)*len(cells))
	for _, f := range active {
		fe.setFrame(f)
		for _, c := range cells {
			v, err := fe.evalCellRef(fe.constCtx(), c)
			if err != nil {
				return fmt.Errorf("previous(%s): %v", c, err)
			}
			fe.prevs = append(fe.prevs, v)
		}
	}
	return nil
}

// untilHolds evaluates the UNTIL condition in each active frame after a
// pass — cells read directly see post-pass values, previous() the snapshot
// — and returns, in order and in active's storage, the frames in which it
// does not hold.
func (fe *frameEval) untilHolds(active []*Frame) ([]*Frame, error) {
	np := len(fe.m.prevCells)
	keep := active[:0]
	for i, f := range active {
		fe.setFrame(f)
		fe.prev = fe.prevs[i*np : (i+1)*np]
		stop, err := fe.evalBool(fe.constCtx(), fe.m.Iterate.Until)
		if err != nil {
			return nil, fmt.Errorf("UNTIL: %v", err)
		}
		if !stop {
			keep = append(keep, f)
		}
	}
	return keep, nil
}

// previous is the contexts' previous() hook: the current frame's snapshot.
func (fe *frameEval) previous(c *sqlast.CellRef) (types.Value, error) {
	if j := slices.Index(fe.m.prevCells, c); j >= 0 && j < len(fe.prev) {
		return fe.prev[j], nil
	}
	return types.Null, fmt.Errorf("previous(%s): no snapshot (internal)", c)
}
