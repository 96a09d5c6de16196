package core

import (
	"fmt"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// evalCellAgg resolves an aggregate reference during formula evaluation.
// Instances prepared for the current target are consulted first; an
// aggregate without a prepared instance (e.g. one nested inside a
// dimension-qualifier expression) is computed on the spot.
func (fe *frameEval) evalCellAgg(ctx *eval.Context, a *sqlast.CellAgg) (types.Value, error) {
	if inst, ok := fe.curAggs[a]; ok {
		return inst.acc.Result(), nil
	}
	inst, err := fe.buildInstance(ctx, a)
	if err != nil {
		return types.Null, err
	}
	if inst.probe {
		if err := inst.runProbe(fe); err != nil {
			return types.Null, err
		}
	} else if err := fe.scanFeed([]*aggInstance{inst}); err != nil {
		return types.Null, err
	}
	return inst.acc.Result(), nil
}

// runSCC is the Auto-Cyclic algorithm (§5): formulas in a strongly
// connected component are evaluated in order, repeatedly, until a fixed
// point. The iteration bound is N = the number of cells updated or upserted
// in the first iteration — enough for any spreadsheet that was actually
// acyclic but could not be proven so; genuinely divergent models exceed N
// and error out.
//
// Convergence is detected with two alternating generations of per-cell
// "referenced" flags: a write that changes a cell read in this or the
// previous iteration — or any insert — forces another iteration.
func (fe *frameEval) runSCC(rules []int) error {
	fe.trackRefs = true
	fe.gen = 0
	fe.f.ClearFlags(0)
	fe.f.ClearFlags(1)
	defer func() {
		fe.trackRefs = false
		fe.assigned = nil
	}()

	bound := 0
	for iter := 0; ; iter++ {
		// Cancellation point: one poll per fixpoint iteration.
		if err := fe.opts.ctxErr(); err != nil {
			return err
		}
		fe.changed = false
		fe.assigned = make(map[int64]bool)
		for _, ri := range rules {
			r := fe.m.Rules[ri]
			var err error
			if r.Existential {
				err = fe.applyExistential(r, fe.own())
			} else {
				err = fe.applyPointRuleStandalone(r)
			}
			if err != nil {
				return err
			}
		}
		if iter == 0 {
			bound = len(fe.assigned)
			if bound < 1 {
				bound = 1
			}
		}
		if !fe.changed {
			return nil
		}
		if iter >= bound {
			return fmt.Errorf("spreadsheet did not converge: cycle of %d formula(s) still changing after %d iterations",
				len(rules), iter+1)
		}
		// Swap flag generations; the one we enter holds flags from two
		// iterations back and is cleared (the paper's alternating-flag
		// trick avoids clearing both every iteration).
		fe.gen = 1 - fe.gen
		fe.f.ClearFlags(fe.gen)
	}
}

// applyPointRuleStandalone evaluates one single-cell rule outside the
// shared-scan batching: targets enumerated and aggregates computed fresh,
// so each SCC iteration sees the current state.
func (fe *frameEval) applyPointRuleStandalone(r *Rule) error {
	targets, err := fe.ruleTargets(r)
	if err != nil {
		return err
	}
	cellAggs := r.cellAggs
	for _, dims := range targets {
		ctx := fe.targetCtx(r, dims)
		if len(cellAggs) > 0 {
			am := make(map[*sqlast.CellAgg]*aggInstance, len(cellAggs))
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
		err := fe.applyPoint(r, dims, ctx)
		fe.curAggs = nil
		if err != nil {
			return err
		}
	}
	return nil
}
