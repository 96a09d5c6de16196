package core

import (
	"fmt"
	"slices"
)

// buildDepGraph forms the paper's "->" relation: edges[j] lists the rules i
// such that rule i depends on rule j's output (j -> i). A rule F1 depends on
// F2 when a cell F2 writes may be read by F1:
//
//   - F1 reads measure m over rectangle R, F2 writes m over rectangle L, and
//     R intersects L; or
//   - F2 upserts (creates rows) and F1 scans (aggregate or existential left
//     side) a rectangle intersecting F2's left side — new rows change
//     aggregate inputs and existential target sets even across measures.
//
// Complex qualifiers degrade to All bounds, over-estimating the relation;
// the paper accepts the resulting spurious cycles and handles them with the
// Auto-Cyclic algorithm.
func (m *Model) buildDepGraph() {
	n := len(m.Rules)
	m.depEdges = make([][]int, n)
	for i, r1 := range m.Rules {
		deps := make(map[int]bool)
		for j, r2 := range m.Rules {
			if i == j && len(r1.OrderBy) > 0 {
				// An explicit ORDER BY resolves the self-reference
				// ambiguity the paper describes; the rule runs as an
				// ordered existential scan rather than via the cyclic
				// algorithm.
				continue
			}
			if m.dependsOn(r1, r2) {
				deps[j] = true
			}
		}
		for j := range deps {
			m.depEdges[i] = append(m.depEdges[i], j)
		}
		sortInts(m.depEdges[i])
	}
}

// dependsOn reports whether r1 must be evaluated after r2 (r2 -> r1).
func (m *Model) dependsOn(r1, r2 *Rule) bool {
	for _, a := range r1.reads {
		if a.refIdx >= 0 {
			continue // reference sheets are read-only snapshots
		}
		sameMeasure := a.mea == r2.Mea
		scanRead := a.agg != nil
		if sameMeasure && rectsIntersect(a.rect, r2.lhsRect) {
			return true
		}
		if r2.Upsert && scanRead && rectsIntersect(a.rect, r2.lhsRect) {
			return true
		}
	}
	// An existential target set is defined by which rows exist, so row
	// creation feeds every existential rule whose left side may match.
	if r1.Existential && r2.Upsert && rectsIntersect(r1.lhsRect, r2.lhsRect) {
		return true
	}
	return false
}

// sortInts is a tiny insertion sort (edge lists are short).
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// stepKind distinguishes plain levels from cyclic groups.
type stepKind uint8

const (
	stepLevel stepKind = iota // independent rules, one shared scan
	stepSCC                   // strongly connected rules, iterated to fixpoint
)

// level is one execution step produced by the analysis.
type level struct {
	kind  stepKind
	rules []int // rule indices, in original formula order
}

// Analyze orders the rules for execution: dependency graph, SCC detection,
// and scan-minimizing level generation (GenLevels in the paper). It must be
// called before Run and after any pruning/rewriting.
func (m *Model) Analyze() error {
	m.buildDepGraph()
	m.levels = nil
	if m.SeqOrder {
		m.analyzeSequential()
		return nil
	}
	return m.genLevels()
}

// Levels exposes the analysis result for EXPLAIN and tests: one slice of
// rule indices per execution step, plus whether the step iterates (SCC).
func (m *Model) Levels() (steps [][]int, cyclicStep []bool) {
	for _, l := range m.levels {
		steps = append(steps, append([]int(nil), l.rules...))
		cyclicStep = append(cyclicStep, l.kind == stepSCC)
	}
	return steps, cyclicStep
}

// Cyclic reports whether the analysis found (potentially) cyclic rules: a
// step it iterates to a fixpoint.
func (m *Model) Cyclic() bool {
	return slices.ContainsFunc(m.levels, func(l level) bool { return l.kind == stepSCC })
}

// isScanRule classifies rules the way GenLevels needs: a rule requires a
// scan when it computes a range aggregate or has an existential left side;
// everything else is a single_ref.
func (m *Model) isScanRule(i int) bool {
	r := m.Rules[i]
	if r.Existential {
		return true
	}
	for _, a := range r.reads {
		if a.scan {
			return true
		}
	}
	return false
}

// genLevels implements the paper's GenLevels: repeatedly take the sources of
// the remaining graph; if any of them are single_refs, emit only those
// (delaying scans so independent scans share a level); otherwise emit all
// the (scan) sources. When no source exists the remaining front is cyclic:
// emit its source SCC as an iterated group.
func (m *Model) genLevels() error {
	n := len(m.Rules)
	remaining := make(map[int]bool, n)
	for i := range m.Rules {
		remaining[i] = true
	}
	// sccOf assigns every rule its strongly connected component; components
	// of size >1 (or with a self-loop) are cyclic.
	sccs := tarjanSCC(n, m.depEdges)
	selfLoop := make([]bool, n)
	for i, deps := range m.depEdges {
		for _, j := range deps {
			if j == i {
				selfLoop[i] = true
			}
		}
	}
	sccOf := make([]int, n)
	sccSize := make([]int, len(sccs))
	for id, comp := range sccs {
		sccSize[id] = len(comp)
		for _, i := range comp {
			sccOf[i] = id
		}
	}
	for i := range m.Rules {
		if sccSize[sccOf[i]] > 1 || selfLoop[i] {
			m.Rules[i].sccID = sccOf[i]
		} else {
			m.Rules[i].sccID = -1
		}
	}

	for len(remaining) > 0 {
		// Sources: remaining rules with no dependency on another remaining
		// rule outside their own SCC... plain sources first.
		var sources []int
		for i := range remaining {
			ok := true
			for _, j := range m.depEdges[i] {
				if remaining[j] && j != i {
					ok = false
					break
				}
			}
			if ok && m.Rules[i].sccID < 0 {
				sources = append(sources, i)
			}
		}
		sortInts(sources)
		if len(sources) > 0 {
			var singles, scans []int
			for _, i := range sources {
				if m.isScanRule(i) {
					scans = append(scans, i)
				} else {
					singles = append(singles, i)
				}
			}
			if len(singles) > 0 {
				m.appendLevel(stepLevel, singles)
				for _, i := range singles {
					delete(remaining, i)
				}
			} else {
				m.appendLevel(stepLevel, scans)
				for _, i := range scans {
					delete(remaining, i)
				}
			}
			continue
		}
		// No acyclic source: find a source SCC (all external deps done).
		sccReady := -1
		for i := range remaining {
			id := m.Rules[i].sccID
			if id < 0 {
				continue
			}
			ready := true
			for _, k := range sccs[id] {
				for _, j := range m.depEdges[k] {
					if remaining[j] && m.Rules[j].sccID != id {
						ready = false
						break
					}
				}
				if !ready {
					break
				}
			}
			if ready && (sccReady < 0 || id < sccReady) {
				sccReady = id
			}
		}
		if sccReady < 0 {
			return fmt.Errorf("spreadsheet analysis: dependency graph is stuck (internal error)")
		}
		comp := append([]int(nil), sccs[sccReady]...)
		sortInts(comp)
		m.appendLevel(stepSCC, comp)
		for _, i := range comp {
			delete(remaining, i)
		}
	}
	for li, l := range m.levels {
		for _, i := range l.rules {
			m.Rules[i].level = li
		}
	}
	return nil
}

func (m *Model) appendLevel(kind stepKind, rules []int) {
	m.levels = append(m.levels, level{kind: kind, rules: rules})
}

// analyzeSequential groups lexically consecutive independent rules into
// shared-scan levels. Dependency edges always point from earlier to later
// formulas, so the graph is acyclic by construction; iteration (ITERATE) is
// handled by the executor, not the level structure. A level fires its rules
// in no lexical order (single-cell rules before existential ones), so a
// rule also starts a new level when it writes a measure the current level
// writes or reads: a later write must land after, and be unseen by, the
// earlier rules.
func (m *Model) analyzeSequential() {
	var cur []int
	flush := func() {
		if len(cur) > 0 {
			m.appendLevel(stepLevel, cur)
			cur = nil
		}
	}
	dependsOnCur := func(i int) bool {
		for _, j := range m.depEdges[i] {
			for _, k := range cur {
				if j == k {
					return true
				}
			}
		}
		return false
	}
	touchedByCur := func(mea int) bool {
		for _, k := range cur {
			r := m.Rules[k]
			if r.Mea == mea || slices.ContainsFunc(r.reads, func(a access) bool { return a.refIdx < 0 && a.mea == mea }) {
				return true
			}
		}
		return false
	}
	for i, r := range m.Rules {
		if dependsOnCur(i) || touchedByCur(r.Mea) {
			flush()
		}
		cur = append(cur, i)
	}
	flush()
	for li, l := range m.levels {
		for _, i := range l.rules {
			m.Rules[i].level = li
			m.Rules[i].sccID = -1
		}
	}
}
