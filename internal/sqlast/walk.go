package sqlast

// WalkExpr calls fn for e and every sub-expression of e, pre-order.
// Returning false from fn prunes descent into that node's children.
// Subqueries are not entered; dimension-qualifier expressions are.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Between:
		WalkExpr(x.X, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InList:
		WalkExpr(x.X, fn)
		for _, it := range x.List {
			WalkExpr(it, fn)
		}
	case *InSubquery:
		WalkExpr(x.X, fn)
	case *IsNull:
		WalkExpr(x.X, fn)
	case *Like:
		WalkExpr(x.X, fn)
		WalkExpr(x.Pattern, fn)
	case *Case:
		WalkExpr(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Then, fn)
		}
		WalkExpr(x.Else, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *WindowFunc:
		WalkExpr(x.Func, fn)
		for _, p := range x.PartitionBy {
			WalkExpr(p, fn)
		}
		for _, o := range x.OrderBy {
			WalkExpr(o.Expr, fn)
		}
	case *CellRef:
		walkQuals(x.Quals, fn)
	case *CellAgg:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
		walkQuals(x.Quals, fn)
	case *Previous:
		WalkExpr(x.Cell, fn)
	case *Present:
		WalkExpr(x.Cell, fn)
	}
}

func walkQuals(qs []DimQual, fn func(Expr) bool) {
	for _, q := range qs {
		WalkExpr(q.Val, fn)
		WalkExpr(q.Pred, fn)
		WalkExpr(q.Lo, fn)
		WalkExpr(q.Hi, fn)
		for _, v := range q.ForVals {
			WalkExpr(v, fn)
		}
	}
}

// CellRefs collects every CellRef and CellAgg in e (including nested ones
// inside qualifier expressions).
func CellRefs(e Expr) (cells []*CellRef, aggs []*CellAgg) {
	WalkExpr(e, func(n Expr) bool {
		switch x := n.(type) {
		case *CellRef:
			cells = append(cells, x)
		case *CellAgg:
			aggs = append(aggs, x)
		}
		return true
	})
	return cells, aggs
}

// ContainsCurrentV reports whether e references cv().
func ContainsCurrentV(e Expr) bool {
	found := false
	WalkExpr(e, func(n Expr) bool {
		if _, ok := n.(*CurrentV); ok {
			found = true
		}
		return !found
	})
	return found
}

// ColumnRefs collects every ColumnRef in e.
func ColumnRefs(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// HasSubquery reports whether e contains a subquery of any kind.
func HasSubquery(e Expr) bool {
	found := false
	WalkExpr(e, func(n Expr) bool {
		switch n.(type) {
		case *InSubquery, *Exists, *ScalarSubquery:
			found = true
		}
		return !found
	})
	return found
}

// WalkTables calls fn once for every distinct relation name stmt reads,
// wherever the name appears: FROM lists and joins, CTE bodies, derived
// tables, every subquery form (IN/EXISTS/scalar, FOR-IN qualifier subqueries
// of cell references and cell aggregates) in every clause — select items,
// WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, PBY/DBY/MEA expressions, rules,
// ITERATE … UNTIL — and reference spreadsheets. view resolves a name to its
// view definition (nil when it is not a view): a view's result changes when
// its underlying relations do, so fn sees the view's name and then the names
// its definition reads. CTE names may shadow table names; reporting the
// shadowed table anyway only over-approximates.
func WalkTables(stmt *SelectStmt, view func(name string) *SelectStmt, fn func(name string)) {
	w := &tableWalker{view: view, fn: fn, seen: map[string]bool{}}
	w.stmt(stmt)
}

type tableWalker struct {
	view func(string) *SelectStmt
	fn   func(string)
	seen map[string]bool
}

func (w *tableWalker) stmt(s *SelectStmt) {
	if s == nil {
		return
	}
	for _, cte := range s.With {
		w.stmt(cte.Query)
	}
	w.query(s.Query)
	for _, o := range s.OrderBy {
		w.expr(o.Expr)
	}
	w.expr(s.Limit)
}

func (w *tableWalker) query(q QueryExpr) {
	switch x := q.(type) {
	case *Union:
		w.query(x.L)
		w.query(x.R)
	case *SelectBody:
		for _, it := range x.Items {
			w.expr(it.Expr)
		}
		for _, tr := range x.From {
			w.tableRef(tr)
		}
		w.expr(x.Where)
		for _, g := range x.GroupBy {
			w.expr(g)
		}
		w.expr(x.Having)
		w.spreadsheet(x.Spreadsheet)
	}
}

func (w *tableWalker) spreadsheet(sp *SpreadsheetClause) {
	if sp == nil {
		return
	}
	for _, r := range sp.Refs {
		w.stmt(r.Query)
	}
	for _, e := range sp.PBY {
		w.expr(e)
	}
	for _, e := range sp.DBY {
		w.expr(e)
	}
	for _, m := range sp.MEA {
		w.expr(m.Expr)
	}
	if sp.Iterate != nil {
		w.expr(sp.Iterate.Until)
	}
	for _, f := range sp.Rules {
		w.expr(f.LHS)
		w.expr(f.RHS)
		for _, o := range f.OrderBy {
			w.expr(o.Expr)
		}
	}
}

func (w *tableWalker) tableRef(tr TableRef) {
	switch x := tr.(type) {
	case *TableName:
		w.name(x.Name)
	case *SubqueryRef:
		w.stmt(x.Sub)
	case *JoinRef:
		w.tableRef(x.L)
		w.tableRef(x.R)
		w.expr(x.On)
	}
}

func (w *tableWalker) expr(e Expr) { WalkExpr(e, w.subqueries) }

// subqueries is WalkExpr's callback: WalkExpr itself stops at subquery
// boundaries, so every subquery form, and the FOR-IN qualifier subqueries of
// cell references, are entered from here.
func (w *tableWalker) subqueries(n Expr) bool {
	switch x := n.(type) {
	case *InSubquery:
		w.stmt(x.Sub)
	case *Exists:
		w.stmt(x.Sub)
	case *ScalarSubquery:
		w.stmt(x.Sub)
	case *CellRef:
		w.quals(x.Quals)
	case *CellAgg:
		w.quals(x.Quals)
	}
	return true
}

func (w *tableWalker) quals(qs []DimQual) {
	for i := range qs {
		w.stmt(qs[i].ForSub)
	}
}

func (w *tableWalker) name(n string) {
	if w.seen[n] {
		return
	}
	w.seen[n] = true
	w.fn(n)
	w.stmt(w.view(n))
}
