package plan

import (
	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// The distribution verdicts decide, per plan node, whether the executor may
// hand the node to the scatter-gather coordinator (internal/shard). The
// annotate walk attaches them when a distributor is configured; it only
// annotates — DistNote carries the verdict plus EXPLAIN's distributed=
// fallback reason — and never changes plan shape, so a distributed and a
// local plan stay structurally identical (a prerequisite for byte-identical
// results and for plan-cache sharing keyed by the config fingerprint).
//
// Spreadsheet nodes shard by PARTITION BY value: the paper's §6 model makes
// partitions independent evaluation units, so a partition's frame can be
// built and its formulas run on any worker. Group-by nodes shard by grouping
// key with per-morsel partials (the PR 1 Merger contract). Everything the
// coordinator cannot reproduce remotely — reference sheets (global state),
// subqueries (need the coordinator's catalog), promoted dimensions (plan
// rewrites baked into DropCols), correlated evaluation — falls back with a
// reason.
const (
	// DistYes marks a node the executor may distribute.
	DistYes = "yes"

	distNoPby         = "no(no-pby)"
	distNoPromoted    = "no(promoted-dims)"
	distNoRefs        = "no(reference-sheets)"
	distNoSubquery    = "no(subquery)"
	distNoColNames    = "no(ambiguous-columns)"
	distNoAggs        = "no(non-mergeable-aggregate)"
	distNoKeys        = "no(no-keys)"
	distNoComplexKeys = "no(non-column-keys)"
	distNoQualified   = "no(qualified-arg-columns)"
)

// sheetDistNote checks a spreadsheet node against the coordinator's
// contract: the worker re-compiles the model from a synthesized statement
// (canonical clause text over the shipped working schema), so everything
// the model touches must be frame-local and self-contained.
func sheetDistNote(x *Spreadsheet) string {
	m := x.Model
	if m.NPby == 0 {
		// No PARTITION BY means one global frame: nothing to scatter.
		return distNoPby
	}
	if len(x.Promoted) > 0 || x.DropCols > 0 {
		// Promoted dimensions are a local-parallelism rewrite (duplicated
		// $dup key column dropped after the run); shipping it would leak
		// the synthetic column into the synthesized clause.
		return distNoPromoted
	}
	if len(m.Refs) > 0 {
		// Reference sheets are read-only global lookups materialized from
		// coordinator-side subplans; formulas over them are not
		// frame-local.
		return distNoRefs
	}
	for _, r := range m.Rules {
		if formulaBlocksDist(r.Src) {
			return distNoSubquery
		}
	}
	if it := m.Iterate; it != nil && it.Until != nil && exprBlocksDist(it.Until) {
		return distNoSubquery
	}
	// The synthesized clause names working columns by their schema names;
	// duplicates or empties would mis-bind on the worker.
	seen := map[string]bool{}
	for _, c := range m.Schema.Cols {
		if c.Name == "" || seen[c.Name] {
			return distNoColNames
		}
		seen[c.Name] = true
	}
	return DistYes
}

// groupDistNote checks a group-by node: aggregates must merge, keys must be
// plain columns (the coordinator hashes them per row to place groups), and
// argument expressions must re-resolve by bare column name on the worker.
func groupDistNote(x *GroupBy) string {
	if len(x.Keys) == 0 {
		// A global aggregate hashes everything to one worker: all overhead,
		// no scatter. Keep it local.
		return distNoKeys
	}
	env := x.Input.Schema()
	nameCount := map[string]int{}
	for _, c := range env.Cols {
		nameCount[c.Name]++
	}
	for _, k := range x.Keys {
		if sqlast.HasSubquery(k) {
			return distNoSubquery
		}
		ord, isCol := eval.PlainOrdinal(env, k)
		if !isCol {
			return distNoComplexKeys
		}
		if name := env.Cols[ord].Name; name == "" || nameCount[name] != 1 {
			return distNoColNames
		}
	}
	for _, spec := range x.Aggs {
		if !aggs.Mergeable(spec.Call.Name) {
			return distNoAggs
		}
		for _, a := range spec.Call.Args {
			if sqlast.HasSubquery(a) {
				return distNoSubquery
			}
			for _, c := range sqlast.ColumnRefs(a) {
				if c.Table != "" {
					// The shipped scratch table has no alias to qualify
					// with; a qualified ref would fail to bind remotely.
					return distNoQualified
				}
				if c.Name == "" || nameCount[c.Name] != 1 {
					return distNoColNames
				}
			}
		}
	}
	return DistYes
}

// formulaBlocksDist reports whether a formula contains anything the worker
// cannot evaluate from the shipped partition alone (subqueries, directly or
// inside cell-reference qualifiers).
func formulaBlocksDist(f *sqlast.Formula) bool {
	if f == nil {
		return true // defensive: no source to synthesize from
	}
	if exprBlocksDist(f.LHS) || exprBlocksDist(f.RHS) {
		return true
	}
	for _, o := range f.OrderBy {
		if exprBlocksDist(o.Expr) {
			return true
		}
	}
	return false
}

// exprBlocksDist is HasSubquery plus the qualifier fields WalkExpr does not
// descend into: FOR d IN (subquery) and FOR d FROM/TO/INCREMENT expressions
// (which may themselves nest cell references).
func exprBlocksDist(e sqlast.Expr) bool {
	if e == nil {
		return false
	}
	if sqlast.HasSubquery(e) {
		return true
	}
	cells, cellAggs := sqlast.CellRefs(e)
	var quals []sqlast.DimQual
	for _, c := range cells {
		quals = append(quals, c.Quals...)
	}
	for _, a := range cellAggs {
		quals = append(quals, a.Quals...)
	}
	for _, q := range quals {
		if q.ForSub != nil {
			return true
		}
		if exprBlocksDist(q.ForFrom) || exprBlocksDist(q.ForTo) || exprBlocksDist(q.ForStep) {
			return true
		}
	}
	return false
}
