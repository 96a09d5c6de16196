package sqlast

import "fmt"

// FormatStatement renders a statement back to parseable SQL. The output is
// canonical: parsing it again yields a tree that formats identically, which
// the materialized-view rewriter uses to match queries against stored view
// definitions, and the parser round-trip tests rely on.
func FormatStatement(s Statement) string {
	var b textWriter
	formatStatement(&b, s)
	return b.String()
}

func formatStatement(b *textWriter, s Statement) {
	switch x := s.(type) {
	case *SelectStmt:
		formatSelect(b, x)
	case *CreateTable:
		b.WriteString("CREATE TABLE " + QuoteIdent(x.Name) + " (")
		for i, c := range x.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(QuoteIdent(c.Name) + " " + kindSQL(c.Kind))
		}
		b.WriteString(")")
	case *InsertStmt:
		b.WriteString("INSERT INTO " + QuoteIdent(x.Table))
		if len(x.Cols) > 0 {
			b.WriteString(" (")
			for i, c := range x.Cols {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(QuoteIdent(c))
			}
			b.WriteString(")")
		}
		if x.Query != nil {
			b.WriteString(" ")
			formatSelect(b, x.Query)
			return
		}
		b.WriteString(" VALUES ")
		for i, row := range x.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.str("(").list(row).str(")")
		}
	case *CreateView:
		b.WriteString("CREATE ")
		if x.Force {
			b.WriteString("FORCE ")
		}
		if x.Materialized {
			b.WriteString("MATERIALIZED ")
		}
		b.WriteString("VIEW " + QuoteIdent(x.Name) + " AS ")
		formatSelect(b, x.Query)
	case *RefreshStmt:
		b.WriteString("REFRESH " + QuoteIdent(x.Name))
		if x.Full {
			b.WriteString(" FULL")
		}
	case *DropStmt:
		b.WriteString("DROP TABLE " + QuoteIdent(x.Name))
	case *DeleteStmt:
		b.WriteString("DELETE FROM " + QuoteIdent(x.Table))
		if x.Where != nil {
			b.str(" WHERE ").expr(x.Where)
		}
	case *UpdateStmt:
		b.WriteString("UPDATE " + QuoteIdent(x.Table) + " SET ")
		for i := range x.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.ident(x.Cols[i]).str(" = ").expr(x.Exprs[i])
		}
		if x.Where != nil {
			b.str(" WHERE ").expr(x.Where)
		}
	default:
		fmt.Fprintf(b, "/* unprintable %T */", s)
	}
}

func kindSQL(k interface{ String() string }) string {
	switch k.String() {
	case "INT":
		return "INT"
	case "FLOAT":
		return "FLOAT"
	case "STRING":
		return "TEXT"
	case "BOOL":
		return "BOOL"
	}
	return "TEXT"
}

func formatSelect(b *textWriter, s *SelectStmt) {
	for i, cte := range s.With {
		if i == 0 {
			b.WriteString("WITH ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(QuoteIdent(cte.Name) + " AS (")
		formatSelect(b, cte.Query)
		b.WriteString(")")
	}
	if len(s.With) > 0 {
		b.WriteString(" ")
	}
	formatQueryExpr(b, s.Query)
	if len(s.OrderBy) > 0 {
		b.str(" ORDER BY ").orderBy(s.OrderBy)
	}
	if s.Limit != nil {
		b.str(" LIMIT ").expr(s.Limit)
	}
}

func formatQueryExpr(b *textWriter, q QueryExpr) {
	switch x := q.(type) {
	case *Union:
		formatQueryExpr(b, x.L)
		b.WriteString(" UNION ")
		if x.All {
			b.WriteString("ALL ")
		}
		formatQueryExpr(b, x.R)
	case *SelectBody:
		formatBody(b, x)
	}
}

func formatBody(b *textWriter, body *SelectBody) {
	b.WriteString("SELECT ")
	if body.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range body.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.expr(item.Expr)
		if item.Alias != "" {
			b.WriteString(" AS " + QuoteIdent(item.Alias))
		}
	}
	for i, tr := range body.From {
		if i == 0 {
			b.WriteString(" FROM ")
		} else {
			b.WriteString(", ")
		}
		formatTableRef(b, tr)
	}
	if body.Where != nil {
		b.str(" WHERE ").expr(body.Where)
	}
	if len(body.GroupBy) > 0 {
		b.str(" GROUP BY ").list(body.GroupBy)
	}
	if body.Having != nil {
		b.str(" HAVING ").expr(body.Having)
	}
	if body.Spreadsheet != nil {
		formatSheet(b, body.Spreadsheet)
	}
}

func formatTableRef(b *textWriter, tr TableRef) {
	switch x := tr.(type) {
	case *TableName:
		b.WriteString(QuoteIdent(x.Name))
		if x.Alias != "" && x.Alias != x.Name {
			b.WriteString(" AS " + QuoteIdent(x.Alias))
		}
	case *SubqueryRef:
		b.WriteString("(")
		formatSelect(b, x.Sub)
		b.WriteString(")")
		if x.Alias != "" {
			b.WriteString(" AS " + QuoteIdent(x.Alias))
		}
	case *JoinRef:
		b.WriteString("(")
		formatTableRef(b, x.L)
		switch x.Type {
		case JoinInner:
			b.WriteString(" JOIN ")
		case JoinLeft:
			b.WriteString(" LEFT JOIN ")
		case JoinRight:
			b.WriteString(" RIGHT JOIN ")
		case JoinCross:
			b.WriteString(" CROSS JOIN ")
		}
		formatTableRef(b, x.R)
		if x.On != nil {
			b.str(" ON ").expr(x.On)
		}
		b.WriteString(")")
		if x.Alias != "" {
			b.WriteString(" AS " + QuoteIdent(x.Alias))
		}
	}
}

func formatSheet(b *textWriter, sc *SpreadsheetClause) {
	b.WriteString(" SPREADSHEET")
	if sc.ReturnUpdated {
		b.WriteString(" RETURN UPDATED ROWS")
	}
	for _, ref := range sc.Refs {
		b.WriteString(" REFERENCE")
		if ref.Name != "" {
			b.WriteString(" " + QuoteIdent(ref.Name))
		}
		b.WriteString(" ON (")
		formatSelect(b, ref.Query)
		b.str(") DBY (").list(ref.DBY).str(") MEA (")
		formatMea(b, ref.MEA)
		b.WriteString(")")
	}
	if len(sc.PBY) > 0 {
		b.str(" PBY (").list(sc.PBY).str(")")
	}
	b.str(" DBY (").list(sc.DBY).str(") MEA (")
	formatMea(b, sc.MEA)
	b.WriteString(")")
	if sc.DefaultMode == ModeUpdate {
		b.WriteString(" UPDATE")
	}
	if sc.SeqOrder {
		b.WriteString(" SEQUENTIAL ORDER")
	}
	if sc.IgnoreNav {
		b.WriteString(" IGNORE NAV")
	}
	if sc.Iterate != nil {
		fmt.Fprintf(b, " ITERATE (%d)", sc.Iterate.N)
		if sc.Iterate.Until != nil {
			b.str(" UNTIL (").expr(sc.Iterate.Until).str(")")
		}
	}
	b.WriteString(" ( ")
	for i, f := range sc.Rules {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteString(" )")
}

func formatMea(b *textWriter, items []MeaItem) {
	for i, mi := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.expr(mi.Expr)
		if mi.Alias != "" {
			b.WriteString(" AS " + QuoteIdent(mi.Alias))
		}
	}
}
