package parser

import (
	"fmt"
	"strconv"
	"strings"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Parser consumes a token stream produced by lex.
type Parser struct {
	src  string
	toks []token
	i    int
	// inModel enables spreadsheet-only syntax: cell references (ident[...]),
	// cv(), previous(), IS PRESENT.
	inModel bool
	// depth counts the open recursive productions (see enter).
	depth int
}

// Parse parses one or more ';'-separated statements.
func Parse(sql string) ([]sqlast.Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	var stmts []sqlast.Statement
	for {
		for p.peekOp(";") {
			p.next()
		}
		if p.peek().kind == tkEOF {
			return stmts, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.peekOp(";") && p.peek().kind != tkEOF {
			return nil, p.errf("unexpected %q after statement", p.peek().text)
		}
	}
}

// ParseQuery parses a single SELECT statement.
func ParseQuery(sql string) (*sqlast.SelectStmt, error) {
	stmts, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	q, ok := stmts[0].(*sqlast.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("statement is not a query")
	}
	return q, nil
}

// ParseExpr parses a standalone expression (tests and internal tooling).
func ParseExpr(s string) (sqlast.Expr, error) {
	p, err := newParser(s)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tkEOF {
		return nil, p.errf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

// ParseModelExpr parses a standalone expression with spreadsheet syntax
// enabled (cell references, cv(), previous()).
func ParseModelExpr(s string) (sqlast.Expr, error) {
	p, err := newParser(s)
	if err != nil {
		return nil, err
	}
	p.inModel = true
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tkEOF {
		return nil, p.errf("unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

func newParser(sql string) (*Parser, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	return &Parser{src: sql, toks: toks}, nil
}

// --- token plumbing ---

func (p *Parser) peek() token { return p.toks[p.i] }
func (p *Parser) peekAt(n int) token {
	if p.i+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+n]
}
func (p *Parser) next() token {
	t := p.toks[p.i]
	if t.kind != tkEOF {
		p.i++
	}
	return t
}

func (p *Parser) peekOp(op string) bool {
	t := p.peek()
	return t.kind == tkOp && t.text == op
}

func (p *Parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

// peekKw reports whether the current token is the given keyword
// (keywords are just identifiers compared case-insensitively).
func (p *Parser) peekKw(kw string) bool {
	t := p.peek()
	return t.kind == tkIdent && !t.quoted && t.text == kw
}

// peekAliasable reports whether the current token can serve as an implicit
// alias (an identifier that is either quoted or not a clause keyword).
func (p *Parser) peekAliasable() bool {
	t := p.peek()
	return t.kind == tkIdent && (t.quoted || !reservedAfterExpr[t.text])
}

func (p *Parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.peek().text)
	}
	return nil
}

// enter opens one level of a self-recursive production; the caller defers
// leave. Past maxNestingDepth it fails with an error wrapping ErrTooDeep.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNestingDepth {
		err := p.errf("nesting deeper than %d levels", maxNestingDepth).(*Error)
		err.Cause = ErrTooDeep
		return err
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) errf(format string, args ...any) error {
	t := p.peek()
	tok := t.text
	if t.kind == tkEOF {
		tok = ""
	}
	return posError(p.src, t.pos, tok, fmt.Sprintf(format, args...))
}

// --- statements ---

func (p *Parser) parseStatement() (sqlast.Statement, error) {
	switch {
	case p.peekKw("select") || p.peekKw("with"):
		return p.parseSelectStmt()
	case p.peekKw("create"):
		return p.parseCreate()
	case p.peekKw("insert"):
		return p.parseInsert()
	case p.peekKw("refresh"):
		return p.parseRefresh()
	case p.peekKw("drop"):
		return p.parseDrop()
	case p.peekKw("delete"):
		return p.parseDelete()
	case p.peekKw("update"):
		return p.parseUpdate()
	}
	return nil, p.errf("expected SELECT, WITH, CREATE, INSERT, UPDATE, DELETE, REFRESH or DROP, found %q", p.peek().text)
}

func (p *Parser) parseDelete() (sqlast.Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	st := &sqlast.DeleteStmt{Table: name}
	if p.acceptKw("where") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = cond
	}
	return st, nil
}

func (p *Parser) parseUpdate() (sqlast.Statement, error) {
	p.next() // UPDATE
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	st := &sqlast.UpdateStmt{Table: name}
	for {
		col, err := p.parseIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cols = append(st.Cols, col)
		st.Exprs = append(st.Exprs, e)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("where") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = cond
	}
	return st, nil
}

// parseCreate dispatches CREATE TABLE / CREATE [FORCE] [MATERIALIZED] VIEW.
func (p *Parser) parseCreate() (sqlast.Statement, error) {
	p.next() // CREATE
	force := p.acceptKw("force")
	materialized := p.acceptKw("materialized")
	switch {
	case !force && !materialized && p.peekKw("table"):
		return p.parseCreateTableBody()
	case p.acceptKw("view"):
		name, err := p.parseIdent("view name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		return &sqlast.CreateView{Name: name, Query: q, Materialized: materialized, Force: force}, nil
	}
	return nil, p.errf("expected TABLE or [FORCE] [MATERIALIZED] VIEW after CREATE, found %q", p.peek().text)
}

func (p *Parser) parseRefresh() (sqlast.Statement, error) {
	p.next() // REFRESH
	if p.acceptKw("materialized") {
		if err := p.expectKw("view"); err != nil {
			return nil, err
		}
	}
	name, err := p.parseIdent("materialized view name")
	if err != nil {
		return nil, err
	}
	st := &sqlast.RefreshStmt{Name: name}
	switch {
	case p.acceptKw("full"):
		st.Full = true
	case p.acceptKw("incremental"):
	}
	return st, nil
}

func (p *Parser) parseDrop() (sqlast.Statement, error) {
	p.next() // DROP
	p.acceptKw("materialized")
	if !p.acceptKw("table") && !p.acceptKw("view") {
		return nil, p.errf("expected TABLE or VIEW after DROP, found %q", p.peek().text)
	}
	name, err := p.parseIdent("object name")
	if err != nil {
		return nil, err
	}
	return &sqlast.DropStmt{Name: name}, nil
}

var kindNames = map[string]types.Kind{
	"int": types.KindInt, "integer": types.KindInt, "bigint": types.KindInt, "smallint": types.KindInt,
	"float": types.KindFloat, "double": types.KindFloat, "real": types.KindFloat,
	"number": types.KindFloat, "numeric": types.KindFloat, "decimal": types.KindFloat,
	"varchar": types.KindString, "varchar2": types.KindString, "char": types.KindString,
	"text": types.KindString, "string": types.KindString,
	"bool": types.KindBool, "boolean": types.KindBool,
}

func (p *Parser) parseCreateTableBody() (sqlast.Statement, error) {
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &sqlast.CreateTable{Name: name}
	for {
		cn, err := p.parseIdent("column name")
		if err != nil {
			return nil, err
		}
		tn, err := p.parseIdent("column type")
		if err != nil {
			return nil, err
		}
		k, ok := kindNames[tn]
		if !ok {
			return nil, p.errf("unknown column type %q", tn)
		}
		// Swallow optional (n[,m]) length spec.
		if p.acceptOp("(") {
			for !p.acceptOp(")") {
				if p.peek().kind == tkEOF {
					return nil, p.errf("unterminated type length")
				}
				p.next()
			}
		}
		ct.Cols = append(ct.Cols, types.Column{Name: cn, Kind: k})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *Parser) parseInsert() (sqlast.Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	ins := &sqlast.InsertStmt{Table: name}
	if p.peekOp("(") {
		p.next()
		for {
			cn, err := p.parseIdent("column name")
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, cn)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw("values"):
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []sqlast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	case p.peekKw("select") || p.peekKw("with"):
		q, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		ins.Query = q
	default:
		return nil, p.errf("expected VALUES or SELECT, found %q", p.peek().text)
	}
	return ins, nil
}

// --- queries ---

func (p *Parser) parseSelectStmt() (*sqlast.SelectStmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	stmt := &sqlast.SelectStmt{}
	if p.acceptKw("with") {
		for {
			name, err := p.parseIdent("CTE name")
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("as"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			q, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			stmt.With = append(stmt.With, sqlast.CTE{Name: name, Query: q})
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	q, err := p.parseQueryExpr()
	if err != nil {
		return nil, err
	}
	stmt.Query = q
	if p.peekKw("order") {
		items, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = items
	}
	if p.acceptKw("limit") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Limit = e
	}
	return stmt, nil
}

func (p *Parser) parseOrderBy() ([]sqlast.OrderItem, error) {
	p.next() // ORDER
	if err := p.expectKw("by"); err != nil {
		return nil, err
	}
	var items []sqlast.OrderItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		it := sqlast.OrderItem{Expr: e}
		if p.acceptKw("desc") {
			it.Desc = true
		} else {
			p.acceptKw("asc")
		}
		items = append(items, it)
		if p.acceptOp(",") {
			continue
		}
		return items, nil
	}
}

func (p *Parser) parseQueryExpr() (sqlast.QueryExpr, error) {
	left, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	// As in parseChain, every UNION of the left-deep chain holds one nesting
	// level until the chain ends.
	base := p.depth
	for p.peekKw("union") {
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		all := p.acceptKw("all")
		right, err := p.parseQueryTerm()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Union{L: left, R: right, All: all}
	}
	p.depth = base
	return left, nil
}

// parseQueryTerm parses one operand of a UNION: a select body or a
// parenthesized full SELECT.
func (p *Parser) parseQueryTerm() (sqlast.QueryExpr, error) {
	if !p.peekOp("(") || !p.parenStartsQuery() {
		return p.parseSelectBody()
	}
	p.next()
	sub, err := p.parseSelectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	// A parenthesized statement without its own ORDER BY/LIMIT/WITH
	// collapses to its body; otherwise keep it as a derived subquery.
	if len(sub.With) == 0 && len(sub.OrderBy) == 0 && sub.Limit == nil {
		return sub.Query, nil
	}
	return &sqlast.SelectBody{
		Items: []sqlast.SelectItem{{Expr: &sqlast.Star{}}},
		From:  []sqlast.TableRef{&sqlast.SubqueryRef{Sub: sub}},
	}, nil
}

// parenStartsQuery reports whether the '(' at the cursor opens a subquery:
// the token after it is SELECT or WITH. One token of lookahead — "((" is an
// expression or a join tree whose inner parenthesis is looked at in turn.
func (p *Parser) parenStartsQuery() bool {
	t := p.peekAt(1)
	return t.kind == tkIdent && !t.quoted && (t.text == "select" || t.text == "with")
}

func (p *Parser) parseSelectBody() (*sqlast.SelectBody, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	body := &sqlast.SelectBody{}
	if p.acceptKw("distinct") {
		body.Distinct = true
	} else {
		p.acceptKw("all")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		body.Items = append(body.Items, item)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("from") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			body.From = append(body.From, tr)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("where") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body.Where = e
	}
	if p.peekKw("group") {
		p.next()
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			body.GroupBy = append(body.GroupBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("having") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		body.Having = e
	}
	if p.peekKw("spreadsheet") || p.peekKw("model") {
		sc, err := p.parseSpreadsheetClause()
		if err != nil {
			return nil, err
		}
		body.Spreadsheet = sc
	}
	return body, nil
}

func (p *Parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.peekOp("*") {
		p.next()
		return sqlast.SelectItem{Expr: &sqlast.Star{}}, nil
	}
	// t.* qualified star.
	if p.peek().kind == tkIdent && p.peekAt(1).kind == tkOp && p.peekAt(1).text == "." &&
		p.peekAt(2).kind == tkOp && p.peekAt(2).text == "*" {
		tbl := p.next().text
		p.next()
		p.next()
		return sqlast.SelectItem{Expr: &sqlast.Star{Table: tbl}}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.acceptKw("as") {
		a, err := p.parseIdent("alias")
		if err != nil {
			return sqlast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.peekAliasable() {
		item.Alias = p.next().text
	}
	return item, nil
}

// reservedAfterExpr are keywords that terminate an implicit alias position.
var reservedAfterExpr = map[string]bool{
	"from": true, "where": true, "group": true, "having": true, "order": true,
	"union": true, "limit": true, "on": true, "join": true, "inner": true,
	"left": true, "right": true, "full": true, "cross": true, "outer": true,
	"and": true, "or": true, "not": true, "as": true, "asc": true, "desc": true,
	"spreadsheet": true, "model": true, "when": true, "then": true, "else": true,
	"end": true, "in": true, "between": true, "like": true, "is": true,
	"values": true, "set": true, "until": true, "dby": true, "mea": true,
	"pby": true, "rules": true, "iterate": true, "reference": true,
	"dimension": true, "partition": true, "measures": true, "update": true,
	"upsert": true, "sequential": true, "automatic": true, "ignore": true,
	"nav": true, "by": true, "select": true, "with": true,
}

func (p *Parser) parseTableRef() (sqlast.TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	// As in parseChain, every join of the left-deep chain holds one nesting
	// level until the chain ends.
	base := p.depth
	for {
		var jt sqlast.JoinType
		switch {
		case p.peekKw("join") || p.peekKw("inner"):
			p.acceptKw("inner")
			jt = sqlast.JoinInner
		case p.peekKw("left"):
			p.next()
			p.acceptKw("outer")
			jt = sqlast.JoinLeft
		case p.peekKw("right"):
			p.next()
			p.acceptKw("outer")
			jt = sqlast.JoinRight
		case p.peekKw("cross"):
			p.next()
			jt = sqlast.JoinCross
		default:
			p.depth = base
			return left, nil
		}
		if err := p.expectKw("join"); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &sqlast.JoinRef{L: left, R: right, Type: jt}
		if jt != sqlast.JoinCross {
			if err := p.expectKw("on"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *Parser) parseTablePrimary() (sqlast.TableRef, error) {
	if p.peekOp("(") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		if p.parenStartsQuery() {
			p.next()
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			alias := ""
			p.acceptKw("as")
			if p.peekAliasable() {
				alias = p.next().text
			}
			return &sqlast.SubqueryRef{Sub: sub, Alias: alias}, nil
		}
		// Parenthesized join tree, optionally aliased ("(a CROSS JOIN b) v").
		p.next()
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.acceptKw("as")
		if p.peekAliasable() {
			alias := p.next().text
			if j, ok := tr.(*sqlast.JoinRef); ok {
				j.Alias = alias
			} else if tn, ok := tr.(*sqlast.TableName); ok && tn.Alias == "" {
				tn.Alias = alias
			} else if sq, ok := tr.(*sqlast.SubqueryRef); ok && sq.Alias == "" {
				sq.Alias = alias
			}
		}
		return tr, nil
	}
	name, err := p.parseIdent("table name")
	if err != nil {
		return nil, err
	}
	t := &sqlast.TableName{Name: name}
	p.acceptKw("as")
	if p.peekAliasable() {
		t.Alias = p.next().text
	}
	return t, nil
}

func (p *Parser) parseIdent(what string) (string, error) {
	t := p.peek()
	if t.kind != tkIdent {
		return "", p.errf("expected %s, found %q", what, t.text)
	}
	p.next()
	return t.text, nil
}

func parseNumber(text string) (types.Value, error) {
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return types.NewInt(i), nil
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Null, fmt.Errorf("bad numeric literal %q", text)
	}
	return types.NewFloat(f), nil
}
