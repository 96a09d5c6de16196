package sqlast

import (
	"fmt"
	"strings"
)

// textWriter is the one buffer a rendering goes through: a node writes
// itself and recurses into its children on the same buffer, so rendering is
// linear in the output. (Concatenating the children's String() results copies
// the left operand's text once per level — quadratic for an operator chain
// a+1+1+…, which is as deep as it is long.) Its methods chain, so a node
// still reads as the concatenation it renders to.
type textWriter struct {
	strings.Builder
	// spans, when non-nil, records where each expression node's text landed
	// (see SubexprText).
	spans map[Expr][2]int
}

func (b *textWriter) str(parts ...string) *textWriter {
	for _, p := range parts {
		b.WriteString(p)
	}
	return b
}

// strIf writes s when cond holds.
func (b *textWriter) strIf(cond bool, s string) *textWriter {
	if cond {
		b.WriteString(s)
	}
	return b
}

func (b *textWriter) ident(name string) *textWriter { return b.str(QuoteIdent(name)) }

// expr appends e's SQL text.
func (b *textWriter) expr(e Expr) *textWriter {
	start := b.Len()
	b.node(e)
	if b.spans != nil {
		b.spans[e] = [2]int{start, b.Len()}
	}
	return b
}

func (b *textWriter) list(es []Expr) *textWriter {
	for i, e := range es {
		b.strIf(i > 0, ", ").expr(e)
	}
	return b
}

func (b *textWriter) subquery(sub *SelectStmt) *textWriter {
	b.str("(")
	formatSelect(b, sub)
	return b.str(")")
}

func (b *textWriter) orderBy(items []OrderItem) *textWriter {
	for i, o := range items {
		b.strIf(i > 0, ", ").expr(o.Expr).strIf(o.Desc, " DESC")
	}
	return b
}

func exprString(e Expr) string {
	var b textWriter
	return b.expr(e).String()
}

// SubexprText renders e once and returns the text of e and of every
// expression node below it, each a substring of that one rendering: what
// calling String on every node would return, in time linear in the output
// instead of quadratic in the depth.
func SubexprText(e Expr) map[Expr]string {
	b := textWriter{spans: map[Expr][2]int{}}
	text := b.expr(e).String()
	out := make(map[Expr]string, len(b.spans))
	for n, sp := range b.spans {
		out[n] = text[sp[0]:sp[1]]
	}
	return out
}

func (e *Literal) String() string        { return e.Val.SQLLiteral() }
func (e *ColumnRef) String() string      { return exprString(e) }
func (e *Star) String() string           { return exprString(e) }
func (e *Unary) String() string          { return exprString(e) }
func (e *Binary) String() string         { return exprString(e) }
func (e *Between) String() string        { return exprString(e) }
func (e *InList) String() string         { return exprString(e) }
func (e *InSubquery) String() string     { return exprString(e) }
func (e *Exists) String() string         { return exprString(e) }
func (e *ScalarSubquery) String() string { return exprString(e) }
func (e *IsNull) String() string         { return exprString(e) }
func (e *Like) String() string           { return exprString(e) }
func (e *Case) String() string           { return exprString(e) }
func (e *FuncCall) String() string       { return exprString(e) }
func (e *CurrentV) String() string       { return exprString(e) }
func (e *WindowFunc) String() string     { return exprString(e) }
func (e *CellRef) String() string        { return exprString(e) }
func (e *CellAgg) String() string        { return exprString(e) }
func (e *Previous) String() string       { return exprString(e) }
func (e *Present) String() string        { return exprString(e) }

func (b *textWriter) node(e Expr) {
	switch e := e.(type) {
	case *Literal:
		b.str(e.Val.SQLLiteral())
	case *ColumnRef:
		if e.Table != "" {
			b.ident(e.Table).str(".")
		}
		b.ident(e.Name)
	case *Star:
		b.strIf(e.Table != "", e.Table+".").str("*")
	case *Unary:
		b.str(e.Op).strIf(e.Op == "NOT", " ").expr(e.X)
	case *Binary:
		b.str("(").expr(e.L).str(" ", e.Op, " ").expr(e.R).str(")")
	case *Between:
		b.expr(e.X).strIf(e.Not, " NOT").str(" BETWEEN ").expr(e.Lo).str(" AND ").expr(e.Hi)
	case *InList:
		b.expr(e.X).strIf(e.Not, " NOT").str(" IN (").list(e.List).str(")")
	case *InSubquery:
		b.expr(e.X).strIf(e.Not, " NOT").str(" IN ").subquery(e.Sub)
	case *Exists:
		b.strIf(e.Not, "NOT ").str("EXISTS ").subquery(e.Sub)
	case *ScalarSubquery:
		b.subquery(e.Sub)
	case *IsNull:
		b.expr(e.X).str(" IS").strIf(e.Not, " NOT").str(" NULL")
	case *Like:
		b.expr(e.X).strIf(e.Not, " NOT").str(" LIKE ").expr(e.Pattern)
	case *Case:
		b.str("CASE")
		if e.Operand != nil {
			b.str(" ").expr(e.Operand)
		}
		for _, w := range e.Whens {
			b.str(" WHEN ").expr(w.Cond).str(" THEN ").expr(w.Then)
		}
		if e.Else != nil {
			b.str(" ELSE ").expr(e.Else)
		}
		b.str(" END")
	case *FuncCall:
		b.ident(e.Name)
		if e.Star {
			b.str("(*)")
		} else {
			b.str("(").strIf(e.Distinct, "DISTINCT ").list(e.Args).str(")")
		}
	case *CurrentV:
		b.str("cv(").ident(e.Dim).str(")")
	case *WindowFunc:
		b.expr(e.Func).str(" OVER (")
		if len(e.PartitionBy) > 0 {
			b.str("PARTITION BY ").list(e.PartitionBy)
		}
		if len(e.OrderBy) > 0 {
			b.strIf(len(e.PartitionBy) > 0, " ").str("ORDER BY ").orderBy(e.OrderBy)
		}
		if e.Frame != nil {
			fmt.Fprintf(b, " ROWS BETWEEN %s AND %s", e.Frame.Start, e.Frame.End)
		}
		b.str(")")
	case *CellRef:
		if e.Sheet != "" {
			b.ident(e.Sheet).str(".")
		}
		b.ident(e.Measure).quals(e.Quals)
	case *CellAgg:
		b.ident(e.Func)
		if e.Star {
			b.str("(*)")
		} else {
			b.str("(").list(e.Args).str(")")
		}
		b.quals(e.Quals)
	case *Previous:
		b.str("previous(").expr(e.Cell).str(")")
	case *Present:
		b.expr(e.Cell).str(" IS").strIf(e.Not, " NOT").str(" PRESENT")
	default:
		panic(fmt.Sprintf("sqlast: no rendering for %T", e))
	}
}

// String renders a frame bound the way it is written.
func (fb FrameBound) String() string {
	switch fb.Kind {
	case FrameUnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case FramePreceding:
		return fmt.Sprintf("%d PRECEDING", fb.N)
	case FrameCurrentRow:
		return "CURRENT ROW"
	case FrameFollowing:
		return fmt.Sprintf("%d FOLLOWING", fb.N)
	case FrameUnboundedFollowing:
		return "UNBOUNDED FOLLOWING"
	}
	return "?"
}

func (q DimQual) String() string {
	var b textWriter
	return b.qual(q).String()
}

func (b *textWriter) qual(q DimQual) *textWriter {
	switch q.Kind {
	case QualStar:
		return b.str("*")
	case QualPoint:
		if q.Dim != "" {
			b.ident(q.Dim).str("=")
		}
		return b.expr(q.Val)
	case QualPred:
		// A comparison is written bare: parenthesised, "[(d <= cv(d))]"
		// reads back as a point qualifier whose value is that boolean.
		if c, ok := q.Pred.(*Binary); ok {
			return b.expr(c.L).str(" ", c.Op, " ").expr(c.R)
		}
		return b.expr(q.Pred)
	case QualRange:
		lo, hi := "<", "<"
		if q.LoIncl {
			lo = "<="
		}
		if q.HiIncl {
			hi = "<="
		}
		return b.expr(q.Lo).str(lo).ident(q.Dim).str(hi).expr(q.Hi)
	case QualForIn:
		b.str("FOR ").ident(q.Dim)
		switch {
		case q.ForSub != nil:
			return b.str(" IN ").subquery(q.ForSub)
		case q.ForFrom != nil:
			b.str(" FROM ").expr(q.ForFrom).str(" TO ").expr(q.ForTo)
			if q.ForStep != nil {
				b.str(" INCREMENT ").expr(q.ForStep)
			}
			return b
		}
		return b.str(" IN (").list(q.ForVals).str(")")
	}
	return b.str("?")
}

// quals appends a cell reference's bracketed qualifier list.
func (b *textWriter) quals(qs []DimQual) *textWriter {
	b.str("[")
	for i, q := range qs {
		b.strIf(i > 0, ", ").qual(q)
	}
	return b.str("]")
}

// String renders the formula roughly as written, for EXPLAIN output.
func (f *Formula) String() string {
	var b textWriter
	if f.Label != "" {
		b.ident(f.Label).str(": ")
	}
	if m := f.Mode.String(); m != "" {
		b.str(m, " ")
	}
	b.expr(f.LHS)
	if len(f.OrderBy) > 0 {
		b.str(" ORDER BY ").orderBy(f.OrderBy)
	}
	return b.str(" = ").expr(f.RHS).String()
}
