package sqlast

import "sqlsheet/internal/types"

// Statement is any executable SQL statement.
type Statement interface {
	stmtNode()
}

// SelectStmt is a full query: optional WITH list, a query expression
// (select body or UNION tree), and outermost ORDER BY / LIMIT.
type SelectStmt struct {
	With    []CTE
	Query   QueryExpr
	OrderBy []OrderItem
	Limit   Expr // nil if absent
}

// CTE is one WITH name AS (query) entry.
type CTE struct {
	Name  string
	Query *SelectStmt
}

// QueryExpr is a select body or a UNION of query expressions.
type QueryExpr interface {
	queryNode()
}

// Union combines two query expressions; All keeps duplicates.
type Union struct {
	L, R QueryExpr
	All  bool
}

// SelectBody is a single SELECT ... FROM ... query block.
type SelectBody struct {
	Distinct    bool
	Items       []SelectItem
	From        []TableRef // cross-product of join trees
	Where       Expr
	GroupBy     []Expr
	Having      Expr
	Spreadsheet *SpreadsheetClause
}

// SelectItem is one projection: expression plus optional alias, or "*".
type SelectItem struct {
	Expr  Expr // a *Star for "*" / "t.*"
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a FROM-clause item.
type TableRef interface {
	tableNode()
}

// TableName references a stored table or CTE, optionally aliased.
type TableName struct {
	Name  string
	Alias string
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Sub   *SelectStmt
	Alias string
}

// JoinType enumerates join flavours.
type JoinType uint8

const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinCross
)

func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT OUTER"
	case JoinRight:
		return "RIGHT OUTER"
	case JoinCross:
		return "CROSS"
	}
	return "?"
}

// JoinRef is L <join type> R ON On. Alias, when nonempty, renames the
// column qualifier of the whole parenthesized join tree ("(a JOIN b) v").
type JoinRef struct {
	L, R  TableRef
	Type  JoinType
	On    Expr // nil for CROSS
	Alias string
}

func (*TableName) tableNode()   {}
func (*SubqueryRef) tableNode() {}
func (*JoinRef) tableNode()     {}

func (*SelectBody) queryNode() {}
func (*Union) queryNode()      {}

// CreateTable is CREATE TABLE name (col kind, ...).
type CreateTable struct {
	Name string
	Cols []types.Column
}

// InsertStmt is INSERT INTO name [(cols)] VALUES (...),... | SELECT ... .
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
	Query *SelectStmt
}

// CreateView is CREATE [MATERIALIZED] VIEW name AS query. Plain views store
// the query and expand at plan time; materialized views store rows and
// support REFRESH (the paper's §7 "Materialized Views" direction). FORCE
// (Oracle's CREATE FORCE VIEW, and for a materialized view its ON PREBUILT
// TABLE) registers the definition without planning or running it; a
// materialized view then adopts the table of its name as its rows. It is how
// a checkpoint records a definition so that it restores whatever it reads.
type CreateView struct {
	Name         string
	Query        *SelectStmt
	Materialized bool
	Force        bool
}

// RefreshStmt is REFRESH [MATERIALIZED VIEW] name [FULL|INCREMENTAL].
type RefreshStmt struct {
	Name string
	// Full forces complete recomputation even when an incremental refresh
	// would apply.
	Full bool
}

// DropStmt is DROP TABLE|VIEW|MATERIALIZED VIEW name.
type DropStmt struct {
	Name string
}

// DeleteStmt is DELETE FROM name [WHERE cond].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE name SET col = expr, ... [WHERE cond].
type UpdateStmt struct {
	Table string
	Cols  []string
	Exprs []Expr
	Where Expr
}

func (*SelectStmt) stmtNode()  {}
func (*CreateTable) stmtNode() {}
func (*InsertStmt) stmtNode()  {}
func (*CreateView) stmtNode()  {}
func (*RefreshStmt) stmtNode() {}
func (*DropStmt) stmtNode()    {}
func (*DeleteStmt) stmtNode()  {}
func (*UpdateStmt) stmtNode()  {}
