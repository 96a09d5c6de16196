// Package plan builds and optimizes logical query plans: name resolution,
// aggregate rewriting, filter pushdown, join method selection, and the
// spreadsheet-specific optimizations of §4 (formula pruning/rewriting,
// predicate pushing through PBY / independent-dimension / bounding-rectangle
// analysis, and the three reference-spreadsheet transforms).
package plan

import (
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// Node is a logical plan operator. Schemas are static: every node knows its
// output columns at plan time.
type Node interface {
	Schema() *eval.BoundSchema
	Children() []Node
}

// Scan reads a stored table, applying an optional pushed-down filter.
type Scan struct {
	Table   *catalog.Table
	Alias   string
	Filter  sqlast.Expr // nil = none; conjuncts pushed by the optimizer
	FilterC eval.CompiledExpr
	// FilterK is the vectorized form of Filter (invalid = no kernel; the
	// executor keeps the per-row closure path).
	FilterK eval.SelKernel
	// VecNote is EXPLAIN's vectorized= annotation: "yes", or "no(reason)"
	// explaining the fallback. Set at plan time from the expression shape;
	// the executor may still fall back at run time on unsupported column
	// representations.
	VecNote string
	schema  *eval.BoundSchema
}

// CTERef reads a common table expression materialized per execution.
type CTERef struct {
	Def     *CTEDef
	Alias   string
	Filter  sqlast.Expr
	FilterC eval.CompiledExpr
	schema  *eval.BoundSchema
}

// CTEDef is a planned WITH entry, shared by every CTERef to it.
type CTEDef struct {
	Name string
	Plan Node
}

// Filter keeps rows satisfying Cond.
type Filter struct {
	Input Node
	Cond  sqlast.Expr
	CondC eval.CompiledExpr
	// CondK is the vectorized form of Cond, applied when the input result
	// carries a columnar image.
	CondK eval.SelKernel
	// VecNote is EXPLAIN's vectorized= annotation ("yes" / "no(reason)").
	VecNote string
}

// Project computes expressions over input rows.
type Project struct {
	Input  Node
	Exprs  []sqlast.Expr
	ExprsC []eval.CompiledExpr
	// ExprsK holds the vectorized compute kernel per output expression
	// (plain column references compile to gather kernels). The executor
	// takes the batch path only when every slot is valid and supported over
	// the input's actual column representations.
	ExprsK []eval.ExprKernel
	// VecNote is EXPLAIN's vectorized= annotation ("yes" / "no(reason)").
	VecNote string
	schema  *eval.BoundSchema
}

// JoinMethod selects the physical join algorithm.
type JoinMethod uint8

const (
	// JoinAuto picks hash when equi-keys exist, else nested loops.
	JoinAuto JoinMethod = iota
	JoinHash
	JoinNestedLoop
)

func (m JoinMethod) String() string {
	switch m {
	case JoinHash:
		return "hash"
	case JoinNestedLoop:
		return "nested-loop"
	}
	return "auto"
}

// Join combines two inputs. LeftKeys/RightKeys hold the equi-join key
// expressions (evaluated against the respective side); Residual is the
// remaining predicate evaluated over the combined row.
type Join struct {
	L, R       Node
	Type       sqlast.JoinType
	LeftKeys   []sqlast.Expr
	RightKeys  []sqlast.Expr
	Residual   sqlast.Expr
	LeftKeysC  []eval.CompiledExpr
	RightKeysC []eval.CompiledExpr
	ResidualC  eval.CompiledExpr
	Method     JoinMethod
	// VecNote is EXPLAIN's vectorized= annotation: hash joins carry columnar
	// provenance through their output ("yes"); nested loops re-box.
	VecNote string
	schema  *eval.BoundSchema
}

// AggSpec is one aggregate computed by GroupBy.
type AggSpec struct {
	Name string // output column name ($agg0, ...)
	Call *sqlast.FuncCall
}

// GroupBy hash-aggregates its input. Output schema: one column per key
// (named after the key when it is a plain column) then one per aggregate.
type GroupBy struct {
	Input Node
	Keys  []sqlast.Expr
	Aggs  []AggSpec
	// KeysC / AggArgsC are the compiled key and per-aggregate argument
	// extractors (AggArgsC[i] aligns with Aggs[i].Call.Args).
	KeysC    []eval.CompiledExpr
	AggArgsC [][]eval.CompiledExpr
	// ArgK holds vectorized compute kernels for the aggregate arguments
	// (ArgK[i] aligns with Aggs[i].Call.Args; nil for COUNT(*)). The batch
	// aggregation path runs only when keys are plain columns and every
	// argument kernel is valid and supported over the input image.
	ArgK [][]eval.ExprKernel
	// VecNote is EXPLAIN's vectorized= annotation ("yes" / "no(reason)").
	VecNote string
	schema  *eval.BoundSchema
}

// Union concatenates (ALL) or deduplicates its inputs.
type Union struct {
	L, R Node
	All  bool
}

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

// Sort orders rows by the items, evaluated against the input schema.
type Sort struct {
	Input Node
	Items []sqlast.OrderItem
	// ItemsC aligns with Items (compiled sort-key extractors).
	ItemsC []eval.CompiledExpr
	// Note records the execution strategy for EXPLAIN (set only when the
	// session configures an explicit worker count, so plans stay
	// machine-independent).
	Note string
}

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int
}

// Spreadsheet executes a compiled spreadsheet clause over its input, which
// must produce rows in the model's working-schema layout. RefPlans supply
// the reference sheets' data; ForInPlans the FOR-IN subqueries.
type Spreadsheet struct {
	Input Node
	Model *core.Model
	// RefPlans aligns with Model.Refs.
	RefPlans []Node
	// Promoted dimensions for parallel execution (S4 duplication).
	Promoted []core.PromotedDim
	// DropCols is the number of leading working-schema columns (duplicated
	// distribution keys) removed from the node's output.
	DropCols int
	// Notes records optimizer decisions for EXPLAIN.
	Notes []string
	// RuleVecNotes records each rule's batch-kernel decision (aligned with
	// Model.Rules), printed as vectorized= on EXPLAIN's rule lines.
	RuleVecNotes []string
	schema       *eval.BoundSchema
}

func (n *Scan) Schema() *eval.BoundSchema        { return n.schema }
func (n *CTERef) Schema() *eval.BoundSchema      { return n.schema }
func (n *Filter) Schema() *eval.BoundSchema      { return n.Input.Schema() }
func (n *Project) Schema() *eval.BoundSchema     { return n.schema }
func (n *Join) Schema() *eval.BoundSchema        { return n.schema }
func (n *GroupBy) Schema() *eval.BoundSchema     { return n.schema }
func (n *Union) Schema() *eval.BoundSchema       { return n.L.Schema() }
func (n *Distinct) Schema() *eval.BoundSchema    { return n.Input.Schema() }
func (n *Sort) Schema() *eval.BoundSchema        { return n.Input.Schema() }
func (n *Limit) Schema() *eval.BoundSchema       { return n.Input.Schema() }
func (n *Spreadsheet) Schema() *eval.BoundSchema { return n.schema }

func (n *Scan) Children() []Node     { return nil }
func (n *CTERef) Children() []Node   { return nil }
func (n *Filter) Children() []Node   { return []Node{n.Input} }
func (n *Project) Children() []Node  { return []Node{n.Input} }
func (n *Join) Children() []Node     { return []Node{n.L, n.R} }
func (n *GroupBy) Children() []Node  { return []Node{n.Input} }
func (n *Union) Children() []Node    { return []Node{n.L, n.R} }
func (n *Distinct) Children() []Node { return []Node{n.Input} }
func (n *Sort) Children() []Node     { return []Node{n.Input} }
func (n *Limit) Children() []Node    { return []Node{n.Input} }
func (n *Spreadsheet) Children() []Node {
	out := []Node{n.Input}
	out = append(out, n.RefPlans...)
	return out
}
