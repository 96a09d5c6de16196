package core

import (
	"sqlsheet/internal/sqlast"
)

// canSingleScan decides whether the cross-level single-scan optimization
// applies (§5): "In the absence of existential formulas, and presence of
// only those aggregate functions for which an inverse is defined, the
// aggregates for all the levels are computed in a single scan" and then
// maintained incrementally as formulas update cells. We additionally
// require statically-known targets — a left-side value or aggregate bound
// that reads cells (nested cell references, subqueries) would make upfront
// instance construction see pre-execution state.
func (m *Model) canSingleScan() bool {
	if m.SeqOrder || m.Iterate != nil || m.cyclic {
		return false
	}
	for _, r := range m.Rules {
		if r.Existential {
			return false
		}
		dynamic := false
		check := func(e sqlast.Expr) {
			if e == nil {
				return
			}
			cells, aggsIn := sqlast.CellRefs(e)
			if len(cells) > 0 || len(aggsIn) > 0 || sqlast.HasSubquery(e) {
				dynamic = true
			}
		}
		for _, q := range r.Quals {
			check(q.Val)
			if q.Kind == sqlast.QualForIn && q.ForSub != nil {
				// FOR-IN subqueries are materialized before execution, so
				// they are static by run time.
				continue
			}
		}
		_, cellAggs := sqlast.CellRefs(r.RHS)
		for _, ca := range cellAggs {
			switch ca.Func {
			case "min", "max":
				return false // no inverse
			}
			for _, q := range ca.Quals {
				check(q.Val)
				check(q.Pred)
				check(q.Lo)
				check(q.Hi)
			}
		}
		if dynamic {
			return false
		}
	}
	return true
}

// runSingleScan executes all acyclic levels with one partition scan: every
// aggregate instance of every level is built and filled up front, then
// registered for inverse maintenance so that formula writes and upserts
// keep later levels' aggregates current without rescanning.
func (fe *frameEval) runSingleScan() error {
	type levelEntries struct{ ls []*lsEntry }
	var all []levelEntries
	var scanInsts []*aggInstance
	fe.maintained = nil
	for _, lv := range fe.m.levels {
		var le levelEntries
		for _, ri := range lv.rules {
			r := fe.m.Rules[ri]
			entry, err := fe.prepareLS(r)
			if err != nil {
				return err
			}
			le.ls = append(le.ls, entry)
			for _, am := range entry.aggMaps {
				for _, inst := range am {
					if inst.probe {
						if err := inst.runProbe(fe); err != nil {
							return err
						}
					} else {
						scanInsts = append(scanInsts, inst)
					}
					fe.maintained = append(fe.maintained, inst)
				}
			}
		}
		all = append(all, le)
	}
	if len(scanInsts) > 0 {
		if err := fe.scanFeed(scanInsts); err != nil {
			return err
		}
	}
	defer func() { fe.maintained = nil }()
	for _, le := range all {
		for _, e := range le.ls {
			// Agg-free models (maintained stays nil) batch exactly like
			// runPoints; any maintained aggregate forces the per-cell path so
			// inverse maintenance observes every write.
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
	}
	fe.curAggs = nil
	return nil
}
