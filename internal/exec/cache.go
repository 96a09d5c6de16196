package exec

import (
	"sqlsheet/internal/core"
	"sqlsheet/internal/plan"
)

// StructureCache is implemented by the serving-path plan cache (the DB
// layer): version-validated reuse of spreadsheet access structures across
// executions of one cached plan. Both methods deal in pristine — built but
// never evaluated — partition sets; the executor clones before evaluating.
type StructureCache interface {
	// Lookup returns the cached pristine structure for a plan node.
	Lookup(n *plan.Spreadsheet) (*core.PartitionSet, bool)
	// Store publishes a pristine copy of a freshly built structure. The
	// implementation decides whether the node is eligible (only nodes owned
	// by the cached plan are; executor-private subplans are transient).
	Store(n *plan.Spreadsheet, ps *core.PartitionSet)
}

// CacheStats reports the serving-path cache's involvement in one statement.
// Zero when the cache is disabled; the cumulative totals are the cache's
// own counters (plancache.Counters).
type CacheStats struct {
	// PlanHit reports that this statement reused a cached plan (a result
	// hit implies a plan hit: the result was produced by the cached plan).
	PlanHit bool
	// ResultHit reports that the statement was answered from the cached
	// result set without executing.
	ResultHit bool
	// StructuresReused counts spreadsheet access structures this statement
	// cloned from cache instead of rebuilding.
	StructuresReused int
}
