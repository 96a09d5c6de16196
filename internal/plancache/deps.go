package plancache

import (
	"sort"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
)

// CollectDeps gathers every catalog object a statement and its optimized
// plan can read, snapshotting identities and versions, plus the set of
// spreadsheet nodes owned by the plan (eligible for structure caching).
//
// Names come from two walks that cross-check each other:
//   - the AST walk (sqlast.WalkTables) descends into CTE bodies, derived
//     tables, every subquery form, reference spreadsheets and view
//     definitions — catching tables the planner turns into executor-private
//     subplans that never appear as plan Scans;
//   - the plan walk collects Scan tables — catching objects the optimizer
//     substituted (view expansion, materialized-view rewrite targets).
//
// A materialized view's sources are deliberately not snapshotted: reads are
// served from its backing table, which is stale by design until REFRESH
// (REFRESH bumps the backing table's version).
//
// snap, when non-nil, is the statement's MVCC snapshot: dependency versions
// come from the snapshot's pins rather than the live catalog, so a result
// computed against pinned version V is stamped V even if a writer installs
// V+1 between planning and execution. Stamping from the live catalog here
// would open a staleness window: deps stamped V+1, rows computed from V,
// and the entry served as long as the catalog stays at V+1.
func CollectDeps(cat *catalog.Catalog, stmt *sqlast.SelectStmt, p plan.Node, snap *catalog.Snapshot) ([]Dep, map[*plan.Spreadsheet]bool) {
	seen := map[string]bool{}
	sqlast.WalkTables(stmt, cat.ViewQuery, func(n string) { seen[n] = true })
	sheets := make(map[*plan.Spreadsheet]bool)
	walkPlan(p, seen, sheets, map[plan.Node]bool{})

	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	deps := make([]Dep, 0, len(names))
	for _, n := range names {
		d := Dep{Name: n}
		if t, ok := cat.Get(n); ok {
			d.Table = t
			if snap != nil {
				d.Version = snap.Version(t)
			} else {
				d.Version = t.Version.Load()
			}
		}
		if v, ok := cat.ViewDef(n); ok {
			d.View = v
		}
		if mv, ok := cat.MatViewDef(n); ok {
			d.Mat = mv
		}
		deps = append(deps, d)
	}
	return deps, sheets
}

// DepsMatchSnapshot reports whether every dependency the snapshot actually
// pinned matches the dependency snapshot's stamped version. The DB layer
// checks it before registering a result against a cached entry whose deps
// were stamped by an earlier execution: a mismatch means a writer installed
// a new version mid-flight, so the rows do not correspond to the stamp and
// caching them would only waste budget (they could never be served — the
// live version has moved past the stamp — but skipping the store is
// cheaper and keeps the invariant auditable). Tables the snapshot never
// read match trivially.
func DepsMatchSnapshot(deps []Dep, snap *catalog.Snapshot) bool {
	if snap == nil {
		return true
	}
	for i := range deps {
		if deps[i].Table == nil {
			continue
		}
		if v, ok := snap.Pinned(deps[i].Table); ok && v != deps[i].Version {
			return false
		}
	}
	return true
}

// walkPlan collects Scan tables and plan-owned spreadsheet nodes, following
// CTE definition plans explicitly (CTERef.Children returns nil).
func walkPlan(n plan.Node, names map[string]bool, sheets map[*plan.Spreadsheet]bool, visited map[plan.Node]bool) {
	if n == nil || visited[n] {
		return
	}
	visited[n] = true
	switch x := n.(type) {
	case *plan.Scan:
		names[x.Table.Name] = true
	case *plan.CTERef:
		walkPlan(x.Def.Plan, names, sheets, visited)
	case *plan.Spreadsheet:
		sheets[x] = true
	}
	for _, c := range n.Children() {
		walkPlan(c, names, sheets, visited)
	}
}
