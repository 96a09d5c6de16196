package plan

import (
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// PushStrategy selects how predicates on functionally independent
// dimensions are pushed through reference spreadsheets (§4's three
// transformations).
type PushStrategy uint8

const (
	// PushExtended executes the reference query at optimization time and
	// pushes the disjunction of outer and referenced values ("extended
	// pushing"). The paper's best performer; the default.
	PushExtended PushStrategy = iota
	// PushRefSubquery pushes a subquery predicate over the reference query
	// ("ref-subquery pushing", the magic-set-like transform).
	PushRefSubquery
	// PushUnfold replaces reference lookups with their values, specializing
	// formulas per outer dimension value ("formula unfolding").
	PushUnfold
	// PushNone disables pushing through functionally independent
	// dimensions (the "no pushing" baseline of Fig. 2).
	PushNone
)

func (s PushStrategy) String() string {
	switch s {
	case PushExtended:
		return "extended"
	case PushRefSubquery:
		return "ref-subquery"
	case PushUnfold:
		return "unfold"
	case PushNone:
		return "none"
	}
	return "?"
}

// RefExecutor lets the optimizer execute reference queries at plan time
// (the paper calls this "dynamic optimization"); the executor package
// provides the implementation.
type RefExecutor interface {
	Rows(stmt *sqlast.SelectStmt) (*eval.BoundSchema, []types.Row, error)
}

// Ablation is the optimizer's set of ablation toggles: the transform and
// join-method selections of the paper's Fig. 2 and the switches that turn
// one optimization off so tests and internal/experiments can measure it
// against its baseline. The zero value is the serving configuration; no
// serving caller sets a field. This is the only declaration of these
// toggles — exec.Options and sqlsheet.Config carry the struct by value.
type Ablation struct {
	// ForceJoin overrides join method selection (JoinAuto = pick).
	ForceJoin JoinMethod
	// Push selects the reference-pushing transform.
	Push PushStrategy
	// DisableSheetPrune turns off formula pruning and the left-side
	// restriction of surviving sink formulas (PruneFormulas).
	DisableSheetPrune bool
	// DisableSheetPush turns off predicate pushing through spreadsheets.
	DisableSheetPush bool
	// DisableFilterPushdown turns off generic filter pushdown.
	DisableFilterPushdown bool
}

// Options steers planning and optimization. The zero value gives default
// behaviour with every optimization enabled.
type Options struct {
	// Ablate carries the optimizer's ablation toggles.
	Ablate Ablation
	// Engine carries the spreadsheet engine's ablation toggles. The planner
	// reads the two vectorization switches: with DisableVectorizedExec no
	// kernel is compiled into the plan, and EXPLAIN's vectorized= notes
	// (per node and per rule) reflect the path that will execute.
	Engine core.Ablation
	// Parallel is the spreadsheet degree of parallelism.
	Parallel int
	// Workers is the operator worker-pool size for morsel-driven parallel
	// relational operators (0 = all cores, 1 = serial). The pool shares one
	// core budget with the spreadsheet PEs; see exec.Options.Workers.
	Workers int
	// PromoteIndependentDims duplicates an independent dimension into the
	// distribution key when the PBY list is empty (S3/S4).
	PromoteIndependentDims bool
	// Exec runs reference queries during optimization (extended pushing,
	// formula unfolding); nil disables those strategies gracefully.
	Exec RefExecutor
	// EnableMVRewrite substitutes materialized views for subqueries whose
	// canonical SQL exactly matches an MV definition (§7; the general
	// problem is undecidable, the exact-match restriction is not). Off by
	// default: a rewrite may serve data stale since the last REFRESH.
	EnableMVRewrite bool
}
