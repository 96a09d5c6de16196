package parser

import (
	"strconv"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// parseExpr parses at the lowest precedence level (OR).
func (p *Parser) parseExpr() (sqlast.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseChain(p.parseAnd, func() string {
		if p.acceptKw("or") {
			return "OR"
		}
		return ""
	})
}

func (p *Parser) parseAnd() (sqlast.Expr, error) {
	return p.parseChain(p.parseNot, func() string {
		if p.acceptKw("and") || p.acceptOp("AND") {
			return "AND"
		}
		return ""
	})
}

// parseChain parses "operand (op operand)*" into a left-deep tree; nextOp
// consumes and returns the next operator of this precedence level, or "".
// The loop does not recurse, but the tree it builds is as deep as the chain
// is long and every later pass walks it by recursion, so each operator holds
// one nesting level until the chain ends: a+1+1+… is bounded like ((((…)))).
// (An error abandons the parse, so only the normal exit gives the levels
// back.)
func (p *Parser) parseChain(operand func() (sqlast.Expr, error), nextOp func() string) (sqlast.Expr, error) {
	left, err := operand()
	if err != nil {
		return nil, err
	}
	base := p.depth
	for {
		op := nextOp()
		if op == "" {
			p.depth = base
			return left, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		right, err := operand()
		if err != nil {
			return nil, err
		}
		left = &sqlast.Binary{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseNot() (sqlast.Expr, error) {
	if p.acceptKw("not") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

var compareOps = map[string]bool{"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *Parser) parseComparison() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return p.parseComparisonRest(left)
}

// parseComparisonRest parses the comparison/IS/IN/BETWEEN/LIKE suffix.
func (p *Parser) parseComparisonRest(left sqlast.Expr) (sqlast.Expr, error) {
	t := p.peek()
	if t.kind == tkOp && compareOps[t.text] {
		op := p.next().text
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.Binary{Op: op, L: left, R: right}, nil
	}
	not := false
	if p.peekKw("not") && (p.peekAt(1).text == "in" || p.peekAt(1).text == "between" || p.peekAt(1).text == "like") {
		p.next()
		not = true
	}
	switch {
	case p.acceptKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.peekKw("select") || p.peekKw("with") {
			sub, err := p.parseSelectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.InSubquery{X: left, Sub: sub, Not: not}, nil
		}
		var list []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.InList{X: left, List: list, Not: not}, nil
	case p.acceptKw("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.Between{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKw("like"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.Like{X: left, Pattern: pat, Not: not}, nil
	case p.peekKw("is"):
		p.next()
		isNot := p.acceptKw("not")
		switch {
		case p.acceptKw("null"):
			return &sqlast.IsNull{X: left, Not: isNot}, nil
		case p.inModel && p.acceptKw("present"):
			cell, ok := left.(*sqlast.CellRef)
			if !ok {
				return nil, p.errf("IS PRESENT requires a cell reference")
			}
			return &sqlast.Present{Cell: cell, Not: isNot}, nil
		}
		return nil, p.errf("expected NULL%s after IS", map[bool]string{true: " or PRESENT", false: ""}[p.inModel])
	}
	return left, nil
}

func (p *Parser) parseAdditive() (sqlast.Expr, error) {
	return p.parseChain(p.parseMultiplicative, func() string {
		if p.peekOp("+") || p.peekOp("-") || p.peekOp("||") {
			return p.next().text
		}
		return ""
	})
}

func (p *Parser) parseMultiplicative() (sqlast.Expr, error) {
	return p.parseChain(p.parseUnary, func() string {
		if p.peekOp("*") || p.peekOp("/") || p.peekOp("%") {
			return p.next().text
		}
		return ""
	})
}

func (p *Parser) parseUnary() (sqlast.Expr, error) {
	if p.peekOp("-") || p.peekOp("+") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
	}
	switch {
	case p.acceptOp("-"):
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals for cleaner ASTs.
		if lit, ok := x.(*sqlast.Literal); ok && lit.Val.IsNumeric() {
			v, err := types.Neg(lit.Val, types.KeepNav)
			if err == nil {
				return &sqlast.Literal{Val: v}, nil
			}
		}
		return &sqlast.Unary{Op: "-", X: x}, nil
	case p.acceptOp("+"):
		return p.parseUnary()
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary expression followed by optional cell-ref
// brackets (spreadsheet context only).
func (p *Parser) parsePostfix() (sqlast.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.inModel && p.peekOp("[") {
		return p.parseCellSuffix(e)
	}
	return e, nil
}

func (p *Parser) parseCellSuffix(base sqlast.Expr) (sqlast.Expr, error) {
	quals, err := p.parseQualList()
	if err != nil {
		return nil, err
	}
	switch b := base.(type) {
	case *sqlast.ColumnRef:
		return &sqlast.CellRef{Sheet: b.Table, Measure: b.Name, Quals: quals}, nil
	case *sqlast.FuncCall:
		return &sqlast.CellAgg{Func: b.Name, Args: b.Args, Star: b.Star, Quals: quals}, nil
	}
	return nil, p.errf("cell reference must follow a measure name or aggregate call")
}

func (p *Parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.next()
		v, err := parseNumber(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return &sqlast.Literal{Val: v}, nil
	case tkString:
		p.next()
		return &sqlast.Literal{Val: types.NewString(t.text)}, nil
	case tkOp:
		if t.text == "(" {
			if p.parenStartsQuery() {
				p.next()
				sub, err := p.parseSelectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.ScalarSubquery{Sub: sub}, nil
			}
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tkIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errf("unexpected %q in expression", t.text)
}

func (p *Parser) parseIdentExpr() (sqlast.Expr, error) {
	tok := p.next()
	name := tok.text
	if tok.quoted {
		return p.parseNamedExpr(name)
	}
	switch name {
	case "null":
		return &sqlast.Literal{Val: types.Null}, nil
	case "true":
		return &sqlast.Literal{Val: types.NewBool(true)}, nil
	case "false":
		return &sqlast.Literal{Val: types.NewBool(false)}, nil
	case "case":
		return p.parseCase()
	case "exists":
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.Exists{Sub: sub}, nil
	}
	return p.parseNamedExpr(name)
}

// parseNamedExpr parses the function-call / qualified-name / column-ref
// continuation after an identifier.
func (p *Parser) parseNamedExpr(name string) (sqlast.Expr, error) {
	// Function call?
	if p.peekOp("(") {
		e, err := p.parseFuncCall(name)
		if err != nil {
			return nil, err
		}
		if fc, ok := e.(*sqlast.FuncCall); ok && p.peekKw("over") {
			return p.parseOverClause(fc)
		}
		return e, nil
	}
	// Qualified name t.c.
	if p.peekOp(".") && p.peekAt(1).kind == tkIdent {
		p.next()
		col := p.next().text
		if p.peekOp("(") {
			// No schema-qualified functions; treat as error.
			return nil, p.errf("unexpected '(' after qualified name %s.%s", name, col)
		}
		return &sqlast.ColumnRef{Table: name, Name: col}, nil
	}
	return &sqlast.ColumnRef{Name: name}, nil
}

func (p *Parser) parseFuncCall(name string) (sqlast.Expr, error) {
	p.next() // '('
	fc := &sqlast.FuncCall{Name: name}
	if p.acceptOp(")") {
		return p.finishFunc(fc)
	}
	if p.peekOp("*") && p.peekAt(1).kind == tkOp && p.peekAt(1).text == ")" {
		p.next()
		p.next()
		fc.Star = true
		return p.finishFunc(fc)
	}
	if p.acceptKw("distinct") {
		fc.Distinct = true
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return p.finishFunc(fc)
}

// finishFunc rewrites spreadsheet pseudo-functions into dedicated AST nodes.
func (p *Parser) finishFunc(fc *sqlast.FuncCall) (sqlast.Expr, error) {
	if !p.inModel {
		return fc, nil
	}
	switch fc.Name {
	case "cv", "currentv":
		if len(fc.Args) != 1 || fc.Star {
			return nil, p.errf("cv() takes exactly one dimension argument")
		}
		c, ok := fc.Args[0].(*sqlast.ColumnRef)
		if !ok || c.Table != "" {
			return nil, p.errf("cv() argument must be a dimension name")
		}
		return &sqlast.CurrentV{Dim: c.Name}, nil
	case "previous":
		if len(fc.Args) != 1 {
			return nil, p.errf("previous() takes exactly one cell argument")
		}
		cell, ok := fc.Args[0].(*sqlast.CellRef)
		if !ok {
			return nil, p.errf("previous() argument must be a cell reference")
		}
		return &sqlast.Previous{Cell: cell}, nil
	}
	return fc, nil
}

// parseOverClause parses the window specification after OVER.
func (p *Parser) parseOverClause(fc *sqlast.FuncCall) (sqlast.Expr, error) {
	p.next() // OVER
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	w := &sqlast.WindowFunc{Func: fc}
	if p.peekKw("partition") {
		p.next()
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.peekKw("order") {
		items, err := p.parseOrderBy()
		if err != nil {
			return nil, err
		}
		w.OrderBy = items
	}
	if p.acceptKw("rows") {
		if err := p.expectKw("between"); err != nil {
			return nil, err
		}
		start, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		end, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		w.Frame = &sqlast.WindowFrame{Start: start, End: end}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return w, nil
}

func (p *Parser) parseFrameBound() (sqlast.FrameBound, error) {
	switch {
	case p.acceptKw("unbounded"):
		switch {
		case p.acceptKw("preceding"):
			return sqlast.FrameBound{Kind: sqlast.FrameUnboundedPreceding}, nil
		case p.acceptKw("following"):
			return sqlast.FrameBound{Kind: sqlast.FrameUnboundedFollowing}, nil
		}
		return sqlast.FrameBound{}, p.errf("expected PRECEDING or FOLLOWING after UNBOUNDED")
	case p.peekKw("current"):
		p.next()
		if err := p.expectKw("row"); err != nil {
			return sqlast.FrameBound{}, err
		}
		return sqlast.FrameBound{Kind: sqlast.FrameCurrentRow}, nil
	}
	n, err := p.atoiLiteral()
	if err != nil {
		return sqlast.FrameBound{}, err
	}
	switch {
	case p.acceptKw("preceding"):
		return sqlast.FrameBound{Kind: sqlast.FramePreceding, N: n}, nil
	case p.acceptKw("following"):
		return sqlast.FrameBound{Kind: sqlast.FrameFollowing, N: n}, nil
	}
	return sqlast.FrameBound{}, p.errf("expected PRECEDING or FOLLOWING")
}

func (p *Parser) parseCase() (sqlast.Expr, error) {
	c := &sqlast.Case{}
	if !p.peekKw("when") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// atoiLiteral extracts a small positive integer literal (ITERATE(n)).
func (p *Parser) atoiLiteral() (int, error) {
	t := p.peek()
	if t.kind != tkNumber {
		return 0, p.errf("expected integer literal, found %q", t.text)
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errf("expected nonnegative integer literal, found %q", t.text)
	}
	p.next()
	return n, nil
}
