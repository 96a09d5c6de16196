package core

import (
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// OuterInfo describes what an outer query block keeps from the spreadsheet's
// result, for formula pruning and rewriting (§4).
type OuterInfo struct {
	// DimBounds gives, per DBY ordinal, the values the outer block keeps
	// (All = no filter on that dimension).
	DimBounds Rect
	// UsedMeasures lists the measure ordinals the outer block references;
	// nil means unknown (assume all).
	UsedMeasures map[int]bool
}

// Prune removes formulas whose outputs the outer block provably discards,
// walking sink nodes exactly as the paper's PruneFormulas, and rewrites
// surviving sinks whose outputs are only partially needed (left-side
// restriction, the F1 -> F1' transformation). It returns the labels of
// pruned and rewritten rules. Analyze must be re-run afterwards; Prune
// resets the analysis state.
func (m *Model) Prune(outer OuterInfo) (pruned, rewritten []string) {
	if outer.DimBounds == nil && outer.UsedMeasures == nil {
		return nil, nil
	}
	n := len(m.Rules)
	removed := make([]bool, n)
	// out[j] = rules that depend on j (reverse of depEdges).
	m.buildDepGraph()
	outEdges := make([][]int, n)
	for i, deps := range m.depEdges {
		for _, j := range deps {
			if j != i {
				outEdges[j] = append(outEdges[j], i)
			}
		}
	}
	liveOut := func(j int) int {
		c := 0
		for _, i := range outEdges[j] {
			if !removed[i] {
				c++
			}
		}
		return c
	}

	// Work the sink frontier.
	var frontier []int
	for i := range m.Rules {
		if liveOut(i) == 0 {
			frontier = append(frontier, i)
		}
	}
	inFrontier := make([]bool, n)
	for _, i := range frontier {
		inFrontier[i] = true
	}
	for len(frontier) > 0 {
		i := frontier[0]
		frontier = frontier[1:]
		inFrontier[i] = false
		if removed[i] || liveOut(i) > 0 {
			continue
		}
		r := m.Rules[i]
		if m.ruleFilteredOut(r, outer) {
			removed[i] = true
			pruned = append(pruned, r.Label)
			// Deleting a sink can expose new sinks among its suppliers.
			for _, j := range m.depEdges[i] {
				if j != i && !removed[j] && liveOut(j) == 0 && !inFrontier[j] {
					frontier = append(frontier, j)
					inFrontier[j] = true
				}
			}
			continue
		}
		if m.rewriteRule(r, outer) {
			rewritten = append(rewritten, r.Label)
		}
	}
	if len(pruned) > 0 {
		var keep []*Rule
		for i, r := range m.Rules {
			if !removed[i] {
				keep = append(keep, r)
			}
		}
		m.Rules = keep
	}
	if len(pruned) > 0 || len(rewritten) > 0 {
		m.levels = nil
		m.depEdges = nil
	}
	return pruned, rewritten
}

// ruleFilteredOut reports whether every cell a rule writes is discarded by
// the outer block: its target rectangle misses the outer filter, or the
// measure it assigns is never referenced outside.
func (m *Model) ruleFilteredOut(r *Rule, outer OuterInfo) bool {
	if outer.UsedMeasures != nil && !outer.UsedMeasures[r.Mea] {
		// An unreferenced measure is only safely prunable for UPDATE rules:
		// an UPSERT still creates rows the outer block may see.
		if !r.Upsert {
			return true
		}
	}
	if outer.DimBounds == nil {
		return false
	}
	for d := 0; d < m.NDby; d++ {
		if !boundsIntersect(r.lhsRect[d], outer.DimBounds[d]) {
			return true
		}
	}
	return false
}

// rewriteRule restricts a surviving sink's left side with the outer block's
// dimension filters to skip computing discarded cells. Only existential
// qualifiers on dimensions with a finite outer bound are tightened.
func (m *Model) rewriteRule(r *Rule, outer OuterInfo) bool {
	if outer.DimBounds == nil {
		return false
	}
	// UPSERT rules must not be restricted on enumerable (FOR) qualifiers:
	// row creation is visible even when the assigned measure is filtered...
	// restricting to the outer filter is still correct because the rows
	// created outside it are discarded by that same filter. Restricting is
	// correct for both modes; we simply narrow the target set.
	changed := false
	for d := 0; d < m.NDby; d++ {
		ob := outer.DimBounds[d]
		if ob.All || ob.IsRange {
			continue // only finite value sets produce clean IN rewrites
		}
		q := &r.Quals[d]
		switch q.Kind {
		case sqlast.QualStar:
			*q = Qual{Kind: sqlast.QualPred, Dim: d, DimName: q.DimName, Pred: valuesPred(q.DimName, ob.Vals)}
			changed = true
		case sqlast.QualPred:
			narrowed := intersectBound(m.qualBound(q, nil), ob)
			if narrowed.All || narrowed.IsRange {
				// Keep the original predicate but conjoin the outer filter.
				q.Pred = &sqlast.Binary{Op: "AND", L: q.Pred, R: valuesPred(q.DimName, ob.Vals)}
			} else {
				q.Pred = &sqlast.Binary{Op: "AND", L: q.Pred, R: valuesPred(q.DimName, narrowed.Vals)}
			}
			changed = true
		case sqlast.QualRange:
			rangeB := m.qualBound(q, nil)
			narrowed := intersectBound(rangeB, ob)
			if !narrowed.All && !narrowed.IsRange {
				*q = Qual{Kind: sqlast.QualPred, Dim: d, DimName: q.DimName, Pred: valuesPred(q.DimName, narrowed.Vals)}
				changed = true
			}
		}
	}
	if changed {
		r.Existential = m.stillExistential(r)
		r.lhsRect = m.lhsRect(r)
		r.reads = m.collectReads(r)
	}
	return changed
}

func (m *Model) stillExistential(r *Rule) bool {
	for _, q := range r.Quals {
		switch q.Kind {
		case sqlast.QualStar, sqlast.QualPred, sqlast.QualRange:
			return true
		}
	}
	return false
}

func valuesPred(dim string, vals []types.Value) sqlast.Expr {
	cref := &sqlast.ColumnRef{Name: dim}
	if len(vals) == 1 {
		return &sqlast.Binary{Op: "=", L: cref, R: &sqlast.Literal{Val: vals[0]}}
	}
	list := make([]sqlast.Expr, len(vals))
	for i, v := range vals {
		list[i] = &sqlast.Literal{Val: v}
	}
	return &sqlast.InList{X: cref, List: list}
}

// IndependentDims reports, per DBY ordinal, whether the dimension is
// independent: every right-side reference uses the same value of the
// dimension as the left side (§4). Independent dimensions are functionally
// equivalent to partition dimensions (absent UPSERT) and enable both
// predicate pushing and finer-grained parallelism.
func (m *Model) IndependentDims() []bool {
	out := make([]bool, m.NDby)
	for d := range out {
		out[d] = true
	}
	for _, r := range m.Rules {
		lq := r.Quals
		for _, a := range r.reads {
			if a.refIdx >= 0 {
				continue // reference sheets have their own dimensions
			}
			var quals []sqlast.DimQual
			if a.cell != nil {
				quals = a.cell.Quals
			} else if a.agg != nil {
				quals = a.agg.Quals
			}
			if len(quals) != m.NDby {
				continue
			}
			for d := 0; d < m.NDby; d++ {
				if !out[d] {
					continue
				}
				if !sameDimValue(quals[d], &lq[d], m.DimName(d)) {
					out[d] = false
				}
			}
		}
	}
	return out
}

// sameDimValue reports whether a right-side qualifier provably takes the
// left side's value for its dimension: cv(dim) verbatim, or the identical
// literal on both sides.
func sameDimValue(rq sqlast.DimQual, lq *Qual, dim string) bool {
	if rq.Kind != sqlast.QualPoint {
		return false
	}
	if cv, ok := rq.Val.(*sqlast.CurrentV); ok {
		return cv.Dim == dim
	}
	rv, rOk := staticEval(rq.Val)
	if !rOk {
		return false
	}
	if lq.Kind == sqlast.QualPoint {
		lv, lOk := staticEval(lq.Val)
		return lOk && types.Equal(rv, lv)
	}
	return false
}

// FunctionallyIndependentDims extends independence through reference-sheet
// lookups: a right-side qualifier of the form refmea[cv(dim)], where refmea
// belongs to a one-dimensional reference sheet over dim, makes the
// dimension functionally independent (query S1's m_yago[cv(m)]). The result
// includes plainly independent dimensions.
func (m *Model) FunctionallyIndependentDims() []bool {
	out := make([]bool, m.NDby)
	for d := range out {
		out[d] = true
	}
	for _, r := range m.Rules {
		lq := r.Quals
		for _, a := range r.reads {
			if a.refIdx >= 0 {
				continue
			}
			var quals []sqlast.DimQual
			if a.cell != nil {
				quals = a.cell.Quals
			} else if a.agg != nil {
				quals = a.agg.Quals
			}
			if len(quals) != m.NDby {
				continue
			}
			for d := 0; d < m.NDby; d++ {
				if !out[d] {
					continue
				}
				if sameDimValue(quals[d], &lq[d], m.DimName(d)) {
					continue
				}
				if m.isRefLookupOfDim(quals[d], m.DimName(d)) {
					continue
				}
				out[d] = false
			}
		}
	}
	return out
}

// isRefLookupOfDim recognizes "refmea[cv(dim)]" qualifiers.
func (m *Model) isRefLookupOfDim(q sqlast.DimQual, dim string) bool {
	if q.Kind != sqlast.QualPoint {
		return false
	}
	cell, ok := q.Val.(*sqlast.CellRef)
	if !ok {
		return false
	}
	rb, ok := m.refMeas[cell.Measure]
	if !ok || len(rb.sheet.Dims) != 1 || rb.sheet.Dims[0] != dim {
		return false
	}
	if len(cell.Quals) != 1 || cell.Quals[0].Kind != sqlast.QualPoint {
		return false
	}
	cv, ok := cell.Quals[0].Val.(*sqlast.CurrentV)
	return ok && cv.Dim == dim
}

// HasUpsert reports whether any rule creates rows.
func (m *Model) HasUpsert() bool {
	for _, r := range m.Rules {
		if r.Upsert {
			return true
		}
	}
	return false
}

// RefLookups lists, per DBY dimension name, the reference measures used as
// refmea[cv(dim)] lookups — the inputs to the three reference-pushing
// transforms of §4.
func (m *Model) RefLookups(dim string) []*sqlast.CellRef {
	var out []*sqlast.CellRef
	seen := map[string]bool{}
	for _, r := range m.Rules {
		cells, aggsIn := sqlast.CellRefs(r.RHS)
		collect := func(quals []sqlast.DimQual) {
			for _, q := range quals {
				if m.isRefLookupOfDim(q, dim) {
					cell := q.Val.(*sqlast.CellRef)
					if !seen[cell.Measure] {
						seen[cell.Measure] = true
						out = append(out, cell)
					}
				}
			}
		}
		for _, c := range cells {
			collect(c.Quals)
		}
		for _, a := range aggsIn {
			collect(a.Quals)
		}
	}
	return out
}
