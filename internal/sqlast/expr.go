// Package sqlast defines the abstract syntax tree for the SQL dialect,
// including the SPREADSHEET clause of Witkowski et al. (SIGMOD 2003).
package sqlast

import (
	"sync/atomic"

	"sqlsheet/internal/types"
)

// Expr is any SQL expression node.
type Expr interface {
	exprNode()
	String() string
}

// Literal is a constant value.
type Literal struct {
	Val types.Value
}

// ColumnRef names a column, optionally qualified by a table alias.
type ColumnRef struct {
	Table string // optional qualifier, lowercase
	Name  string // lowercase
}

// Star is the "*" of SELECT * or COUNT(*); Table qualifies "t.*".
type Star struct {
	Table string
}

// Unary is a prefix operator: "-" or "NOT".
type Unary struct {
	Op string
	X  Expr
}

// Binary is an infix operator: arithmetic, comparison, AND, OR, ||.
type Binary struct {
	Op   string // one of + - * / % = <> < <= > >= AND OR ||
	L, R Expr
}

// Between is X [NOT] BETWEEN Lo AND Hi.
type Between struct {
	X, Lo, Hi Expr
	Not       bool
}

// InList is X [NOT] IN (e1, e2, ...).
type InList struct {
	X    Expr
	List []Expr
	Not  bool
}

// InSubquery is X [NOT] IN (SELECT ...).
type InSubquery struct {
	X   Expr
	Sub *SelectStmt
	Not bool
}

// Exists is [NOT] EXISTS (SELECT ...).
type Exists struct {
	Sub *SelectStmt
	Not bool
}

// ScalarSubquery is a parenthesized subquery used as a scalar value.
type ScalarSubquery struct {
	Sub *SelectStmt
}

// IsNull is X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Not bool
}

// Like is X [NOT] LIKE pattern. The evaluator caches the matcher of a
// pattern that varies per row here (DynCache: rebuilt only when the pattern
// changes); a constant pattern's matcher is built when the expression is
// compiled.
type Like struct {
	X, Pattern Expr
	Not        bool

	dyn atomic.Value // always holds a likeDyn
}

// likeDyn pairs a pattern string with its matcher for DynCache.
type likeDyn struct {
	pat string
	m   any
}

// DynCache returns the cached value when the last-seen pattern matches key,
// rebuilding and re-storing otherwise. Loads and stores are atomic, so
// concurrent evaluators at worst rebuild redundantly — they never race.
func (e *Like) DynCache(key string, build func() any) any {
	if c, ok := e.dyn.Load().(likeDyn); ok && c.pat == key {
		return c.m
	}
	m := build()
	e.dyn.Store(likeDyn{pat: key, m: m})
	return m
}

// When is one WHEN ... THEN ... arm of a CASE.
type When struct {
	Cond, Then Expr
}

// Case is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type Case struct {
	Operand Expr // nil for searched CASE
	Whens   []When
	Else    Expr
}

// FuncCall is a scalar or aggregate function call. Aggregates are
// distinguished by name during analysis (see aggs.IsAggregate).
type FuncCall struct {
	Name     string // lowercase
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool
}

// WindowFunc is fn(args) OVER ([PARTITION BY ...] [ORDER BY ...] [frame]).
// Window functions are the ANSI OLAP amendment the paper cites as [18]; the
// engine implements them both as a general SQL feature and as the ROLAP
// baseline the spreadsheet clause is compared against.
type WindowFunc struct {
	Func        *FuncCall
	PartitionBy []Expr
	OrderBy     []OrderItem
	Frame       *WindowFrame // nil = default (cumulative with ORDER BY, whole partition without)
}

// FrameBoundKind positions one end of a ROWS frame.
type FrameBoundKind uint8

const (
	FrameUnboundedPreceding FrameBoundKind = iota
	FramePreceding                         // N rows before
	FrameCurrentRow
	FrameFollowing // N rows after
	FrameUnboundedFollowing
)

// FrameBound is one end of a window frame.
type FrameBound struct {
	Kind FrameBoundKind
	N    int
}

// WindowFrame is ROWS BETWEEN start AND end.
type WindowFrame struct {
	Start, End FrameBound
}

func (*WindowFunc) exprNode() {}

// --- spreadsheet-specific expression nodes ---

// CurrentV is cv(dim) / currentv(dim): the left-side value of a dimension,
// carried to the right side of a formula.
type CurrentV struct {
	Dim string
}

// CellRef addresses one cell (all qualifiers single-valued) or, on a formula
// left side / under an aggregate, a range of cells.
type CellRef struct {
	Sheet   string    // optional reference-spreadsheet qualifier
	Measure string    // measure column name
	Quals   []DimQual // positional, one per DBY dimension of the sheet
}

// CellAgg is an aggregate over a range of cells: avg(s)[q...], slope(s,t)[q...].
type CellAgg struct {
	Func  string // lowercase aggregate name
	Args  []Expr // measure expressions; empty with Star for count(*)
	Star  bool
	Quals []DimQual
}

// Previous is previous(cell): the value of a cell at the start of the current
// ITERATE iteration; valid only inside UNTIL conditions.
type Previous struct {
	Cell *CellRef
}

// Present is "<cell> IS [NOT] PRESENT": whether the addressed row existed
// before spreadsheet execution began.
type Present struct {
	Cell *CellRef
	Not  bool
}

func (*Literal) exprNode()        {}
func (*ColumnRef) exprNode()      {}
func (*Star) exprNode()           {}
func (*Unary) exprNode()          {}
func (*Binary) exprNode()         {}
func (*Between) exprNode()        {}
func (*InList) exprNode()         {}
func (*InSubquery) exprNode()     {}
func (*Exists) exprNode()         {}
func (*ScalarSubquery) exprNode() {}
func (*IsNull) exprNode()         {}
func (*Like) exprNode()           {}
func (*Case) exprNode()           {}
func (*FuncCall) exprNode()       {}
func (*CurrentV) exprNode()       {}
func (*CellRef) exprNode()        {}
func (*CellAgg) exprNode()        {}
func (*Previous) exprNode()       {}
func (*Present) exprNode()        {}

// QualKind classifies a dimension qualifier inside cell-reference brackets.
type QualKind uint8

const (
	// QualPoint is a single-valued qualifier: a positional expression or
	// "dim = expr". The expression may contain cv().
	QualPoint QualKind = iota
	// QualStar is "*": every value of the dimension.
	QualStar
	// QualPred is a boolean predicate over the dimension (t < 2002,
	// p IN ('a','b'), ...). Range-valued: existential on the left side,
	// requires an aggregate on the right side.
	QualPred
	// QualRange is a chained comparison lo (<|<=) dim (<|<=) hi.
	QualRange
	// QualForIn is "FOR dim IN (list | subquery)": an enumerable set of
	// values, the only multi-valued form allowed with UPSERT.
	QualForIn
)

// DimQual is one positional dimension qualifier of a cell reference.
type DimQual struct {
	Kind QualKind
	Dim  string // dimension column; filled by the binder for positional quals

	Val Expr // QualPoint

	Pred Expr // QualPred: boolean over Dim

	Lo, Hi         Expr // QualRange bounds (either may be nil... both set for chained)
	LoIncl, HiIncl bool

	ForVals []Expr      // QualForIn literal list
	ForSub  *SelectStmt // QualForIn subquery
	// FOR dim FROM lo TO hi [INCREMENT step] arithmetic enumeration.
	ForFrom, ForTo, ForStep Expr
}
