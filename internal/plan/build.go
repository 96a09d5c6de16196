package plan

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Build plans a full SELECT statement.
func Build(cat *catalog.Catalog, stmt *sqlast.SelectStmt, opts *Options) (Node, error) {
	if opts == nil {
		opts = &Options{}
	}
	b := &builder{cat: cat, opts: opts, ctes: map[string]*CTEDef{}}
	n, err := b.buildStmt(stmt)
	if err != nil {
		return nil, err
	}
	n, err = optimize(n, opts)
	if err != nil {
		return nil, err
	}
	(&annotator{opts: opts, visited: map[Node]bool{}}).walk(n)
	return n, nil
}

type builder struct {
	cat  *catalog.Catalog
	opts *Options
	ctes map[string]*CTEDef
}

func (b *builder) buildStmt(stmt *sqlast.SelectStmt) (Node, error) {
	saved := b.ctes
	if len(stmt.With) > 0 {
		// CTEs are lexically scoped; inner statements see outer CTEs.
		b.ctes = make(map[string]*CTEDef, len(saved)+len(stmt.With))
		for k, v := range saved {
			b.ctes[k] = v
		}
		for i := range stmt.With {
			cte := &stmt.With[i]
			p, err := b.buildStmt(cte.Query)
			if err != nil {
				return nil, fmt.Errorf("WITH %s: %v", cte.Name, err)
			}
			b.ctes[cte.Name] = &CTEDef{Name: cte.Name, Plan: p}
		}
		defer func() { b.ctes = saved }()
	}
	n, err := b.buildQueryExpr(stmt.Query)
	if err != nil {
		return nil, err
	}
	if len(stmt.OrderBy) > 0 {
		items, err := resolveOrderBy(stmt.OrderBy, n.Schema())
		if err != nil {
			return nil, err
		}
		s := &Sort{Input: n, Items: items, Limit: -1}
		// Annotate only for an explicitly configured worker count: Workers=0
		// means "all cores", which would make EXPLAIN machine-dependent.
		if b.opts.Workers > 1 {
			s.Note = fmt.Sprintf("parallel chunked sort (%d workers, loser-tree merge)", b.opts.Workers)
		}
		n = s
	}
	if stmt.Limit != nil {
		k, err := limitCount(stmt.Limit)
		if err != nil {
			return nil, err
		}
		n = &Limit{Input: n, N: k}
	}
	return n, nil
}

// ErrLimit is the error of a LIMIT that is not a row count.
var ErrLimit = errors.New("LIMIT must be a non-negative integer constant")

// limitCount evaluates a LIMIT: a constant that is a non-negative integer
// within int range (an integral FLOAT counts; 2.7, -1 and 1e300 do not).
func limitCount(e sqlast.Expr) (int, error) {
	v, err := eval.Compile(nil, e).Eval(&eval.Context{})
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrLimit, err)
	}
	switch {
	case v.K == types.KindInt && v.I >= 0 && v.I <= math.MaxInt:
		return int(v.I), nil
	case v.K == types.KindFloat && v.F >= 0 && v.F == math.Trunc(v.F) && v.F < math.MaxInt:
		return int(v.F), nil
	}
	return 0, fmt.Errorf("%w, got %s", ErrLimit, v.SQLLiteral())
}

// resolveOrderBy maps positional ORDER BY items onto output columns and
// strips stale table qualifiers (projection output columns are unqualified,
// but "ORDER BY f.p" after "SELECT f.p" is idiomatic).
func resolveOrderBy(items []sqlast.OrderItem, schema *eval.BoundSchema) ([]sqlast.OrderItem, error) {
	out := make([]sqlast.OrderItem, len(items))
	for i, it := range items {
		if lit, ok := it.Expr.(*sqlast.Literal); ok && lit.Val.K == types.KindInt {
			pos := int(lit.Val.I)
			if pos < 1 || pos > len(schema.Cols) {
				return nil, fmt.Errorf("ORDER BY position %d out of range", pos)
			}
			c := schema.Cols[pos-1]
			it.Expr = &sqlast.ColumnRef{Table: c.Table, Name: c.Name}
		}
		it.Expr = sqlast.Transform(it.Expr, func(n sqlast.Expr) sqlast.Expr {
			c, ok := n.(*sqlast.ColumnRef)
			if !ok || c.Table == "" {
				return n
			}
			if _, found, _ := schema.Resolve(c.Table, c.Name); found {
				return n
			}
			if _, found, err := schema.Resolve("", c.Name); found && err == nil {
				return &sqlast.ColumnRef{Name: c.Name}
			}
			return n
		})
		if err := checkResolvable(it.Expr, schema); err != nil {
			return nil, fmt.Errorf("ORDER BY: %v", err)
		}
		out[i] = it
	}
	return out, nil
}

func (b *builder) buildQueryExpr(q sqlast.QueryExpr) (Node, error) {
	switch x := q.(type) {
	case *sqlast.SelectBody:
		return b.buildBody(x)
	case *sqlast.Union:
		l, err := b.buildQueryExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildQueryExpr(x.R)
		if err != nil {
			return nil, err
		}
		if len(l.Schema().Cols) != len(r.Schema().Cols) {
			return nil, fmt.Errorf("UNION arms have %d and %d columns",
				len(l.Schema().Cols), len(r.Schema().Cols))
		}
		var n Node = &Union{L: l, R: r, All: x.All}
		if !x.All {
			n = &Distinct{Input: n}
		}
		return n, nil
	}
	return nil, fmt.Errorf("unsupported query expression %T", q)
}

func (b *builder) buildBody(body *sqlast.SelectBody) (Node, error) {
	// FROM.
	var input Node
	for _, tr := range body.From {
		n, err := b.buildTableRef(tr)
		if err != nil {
			return nil, err
		}
		if input == nil {
			input = n
		} else {
			input = newJoin(input, n, sqlast.JoinCross, nil, b.opts)
		}
	}
	if input == nil {
		// SELECT without FROM: a single empty row.
		input = &Project{Input: NewOneRow(), Exprs: nil, schema: eval.NewBoundSchema(nil)}
	}
	// WHERE.
	if body.Where != nil {
		if err := rejectModelOnly(body.Where); err != nil {
			return nil, err
		}
		if err := rejectWindow(body.Where, "WHERE"); err != nil {
			return nil, err
		}
		input = &Filter{Input: input, Cond: body.Where}
	}
	for _, k := range body.GroupBy {
		if err := rejectWindow(k, "GROUP BY"); err != nil {
			return nil, err
		}
	}
	if body.Having != nil {
		if err := rejectWindow(body.Having, "HAVING"); err != nil {
			return nil, err
		}
	}

	// Aggregate collection across SELECT, HAVING, and spreadsheet MEA.
	agg := newAggRewriter(body.GroupBy)
	var selectExprs []sqlast.Expr
	var selectNames []string
	star := false
	for _, item := range body.Items {
		if _, ok := item.Expr.(*sqlast.Star); ok {
			star = true
		}
	}
	collectFrom := func(e sqlast.Expr) sqlast.Expr { return agg.rewrite(e) }

	var having sqlast.Expr
	if body.Having != nil {
		having = collectFrom(body.Having)
	}
	// Rewrite MEA aggregates on a copy: view bodies are planned repeatedly,
	// so the stored AST must stay pristine.
	sheetClause := body.Spreadsheet
	if sheetClause != nil {
		cl := *sheetClause
		cl.MEA = append([]sqlast.MeaItem(nil), sheetClause.MEA...)
		for i := range cl.MEA {
			cl.MEA[i].Expr = collectFrom(cl.MEA[i].Expr)
		}
		sheetClause = &cl
	}
	// SELECT items (not rewritten yet when * present with grouping).
	for _, item := range body.Items {
		if _, ok := item.Expr.(*sqlast.Star); ok {
			continue
		}
		e := collectFrom(item.Expr)
		selectExprs = append(selectExprs, e)
		selectNames = append(selectNames, selectItemName(item, e))
	}

	grouped := len(body.GroupBy) > 0 || len(agg.specs) > 0
	if grouped {
		if star {
			return nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
		gb, err := newGroupBy(input, body.GroupBy, agg.specs)
		if err != nil {
			return nil, err
		}
		input = gb
		if having != nil {
			input = &Filter{Input: input, Cond: having}
		}
		// Validate that select expressions only use keys and aggregates —
		// unless a spreadsheet clause follows, in which case the select
		// list resolves against its PBY ∪ DBY ∪ MEA columns instead.
		if body.Spreadsheet == nil {
			for i, e := range selectExprs {
				if err := checkResolvable(e, input.Schema()); err != nil {
					return nil, fmt.Errorf("select item %d: %v", i+1, err)
				}
			}
		}
	} else if having != nil {
		return nil, fmt.Errorf("HAVING requires GROUP BY or aggregates")
	}

	// Window functions compute over the grouped input, before projection.
	wr := newWindowRewriter()
	for i := range selectExprs {
		selectExprs[i] = wr.rewrite(selectExprs[i])
	}
	if len(wr.specs) > 0 {
		if sheetClause != nil {
			return nil, fmt.Errorf("window functions cannot share a query block with a spreadsheet clause; use a subquery")
		}
		win, err := newWindow(input, wr.specs)
		if err != nil {
			return nil, err
		}
		input = win
	}

	// Spreadsheet clause.
	if sheetClause != nil {
		sheet, err := b.buildSpreadsheet(sheetClause, input)
		if err != nil {
			return nil, err
		}
		input = sheet
		// The select list resolves against PBY ∪ DBY ∪ MEA.
		if star {
			return b.projectAll(input, body, selectExprs, selectNames)
		}
		return b.project(input, selectExprs, selectNames, body.Distinct)
	}

	if star {
		return b.projectAll(input, body, selectExprs, selectNames)
	}
	return b.project(input, selectExprs, selectNames, body.Distinct)
}

// projectAll expands "*" (and any explicit items around it) in declaration
// order: explicit items keep their relative order after the star columns
// when mixed; plain "SELECT *" is the overwhelmingly common case.
func (b *builder) projectAll(input Node, body *sqlast.SelectBody, explicit []sqlast.Expr, names []string) (Node, error) {
	var exprs []sqlast.Expr
	var outNames []string
	ei := 0
	for _, item := range body.Items {
		if st, ok := item.Expr.(*sqlast.Star); ok {
			for _, c := range input.Schema().Cols {
				if st.Table != "" && c.Table != st.Table {
					continue
				}
				if strings.HasPrefix(c.Name, "$") {
					continue // synthetic window/aggregate columns
				}
				exprs = append(exprs, &sqlast.ColumnRef{Table: c.Table, Name: c.Name})
				outNames = append(outNames, c.Name)
			}
			continue
		}
		exprs = append(exprs, explicit[ei])
		outNames = append(outNames, names[ei])
		ei++
	}
	return b.project(input, exprs, outNames, body.Distinct)
}

func (b *builder) project(input Node, exprs []sqlast.Expr, names []string, distinct bool) (Node, error) {
	for i, e := range exprs {
		if err := checkResolvable(e, input.Schema()); err != nil {
			return nil, fmt.Errorf("select item %d: %v", i+1, err)
		}
	}
	cols := make([]eval.BoundCol, len(exprs))
	for i := range exprs {
		cols[i] = eval.BoundCol{Name: names[i]}
	}
	var n Node = &Project{Input: input, Exprs: exprs, schema: eval.NewBoundSchema(cols)}
	if distinct {
		n = &Distinct{Input: n}
	}
	return n, nil
}

// rejectModelOnly errors on spreadsheet-only constructs used outside a
// spreadsheet clause. cv()/previous() parse as ordinary function calls in
// plain SQL contexts, so both spellings are caught here.
func rejectModelOnly(e sqlast.Expr) error {
	var err error
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if err != nil {
			return false
		}
		switch x := n.(type) {
		case *sqlast.CurrentV:
			err = fmt.Errorf("cv() is only valid inside a spreadsheet clause")
		case *sqlast.CellRef, *sqlast.CellAgg, *sqlast.Previous, *sqlast.Present:
			err = fmt.Errorf("cell references are only valid inside a spreadsheet clause")
		case *sqlast.FuncCall:
			switch x.Name {
			case "cv", "currentv", "previous":
				err = fmt.Errorf("%s() is only valid inside a spreadsheet clause", x.Name)
			}
		}
		return true
	})
	return err
}

// tryMVRewrite substitutes a scan of a materialized view for a derived
// table whose canonical SQL equals the view's definition.
func (b *builder) tryMVRewrite(sub *sqlast.SelectStmt, alias string) (Node, bool) {
	if !b.opts.EnableMVRewrite {
		return nil, false
	}
	mv, ok := b.cat.MatViewByDef(sqlast.FormatStatement(sub))
	if !ok {
		return nil, false
	}
	if alias == "" {
		alias = mv.Name
	}
	t := mv.Table
	schema := t.ReadSchema()
	cols := make([]eval.BoundCol, schema.Len())
	for i, c := range schema.Cols {
		cols[i] = eval.BoundCol{Table: alias, Name: c.Name}
	}
	return &Scan{Table: t, Alias: alias, schema: eval.NewBoundSchema(cols)}, true
}

// checkResolvable verifies every column reference in e (outside subqueries)
// resolves in the schema. Unresolvable names may still be satisfied by an
// outer binding at run time for subquery expressions, so this check is
// advisory only for correlated contexts; top-level queries get hard errors.
func checkResolvable(e sqlast.Expr, schema *eval.BoundSchema) error {
	var err error
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if err != nil {
			return false
		}
		if c, ok := n.(*sqlast.ColumnRef); ok {
			_, found, rerr := schema.Resolve(c.Table, c.Name)
			if rerr != nil {
				err = rerr
			} else if !found {
				err = fmt.Errorf("%w %s", eval.ErrUnknownColumn, c)
			}
		}
		return true
	})
	return err
}

func selectItemName(item sqlast.SelectItem, e sqlast.Expr) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := e.(*sqlast.ColumnRef); ok {
		return c.Name
	}
	if c, ok := item.Expr.(*sqlast.ColumnRef); ok {
		return c.Name
	}
	if fc, ok := item.Expr.(*sqlast.FuncCall); ok {
		return fc.Name
	}
	return item.Expr.String()
}

// OneRowNode produces a single empty row (SELECT without FROM).
type OneRow struct{ schema *eval.BoundSchema }

func NewOneRow() Node                       { return &OneRow{schema: eval.NewBoundSchema(nil)} }
func (n *OneRow) Schema() *eval.BoundSchema { return n.schema }

func (b *builder) buildTableRef(tr sqlast.TableRef) (Node, error) {
	switch x := tr.(type) {
	case *sqlast.TableName:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		if def, ok := b.ctes[x.Name]; ok {
			return &CTERef{Def: def, Alias: alias, schema: def.Plan.Schema().Qualify(alias)}, nil
		}
		if v, ok := b.cat.ViewDef(x.Name); ok {
			// Views expand at plan time, so outer predicates flow into the
			// view body — including into spreadsheet clauses (the paper's
			// formula-pruning scenario).
			sub, err := b.buildStmt(v.Query)
			if err != nil {
				return nil, fmt.Errorf("view %s: %v", v.Name, err)
			}
			return &Alias{Input: sub, schema: sub.Schema().Qualify(alias)}, nil
		}
		t, ok := b.cat.Get(x.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %q", x.Name)
		}
		schema := t.ReadSchema()
		cols := make([]eval.BoundCol, schema.Len())
		for i, c := range schema.Cols {
			cols[i] = eval.BoundCol{Table: alias, Name: c.Name}
		}
		return &Scan{Table: t, Alias: alias, schema: eval.NewBoundSchema(cols)}, nil
	case *sqlast.SubqueryRef:
		if mvScan, ok := b.tryMVRewrite(x.Sub, x.Alias); ok {
			return mvScan, nil
		}
		sub, err := b.buildStmt(x.Sub)
		if err != nil {
			return nil, err
		}
		if x.Alias != "" {
			return &Alias{Input: sub, schema: sub.Schema().Qualify(x.Alias)}, nil
		}
		return sub, nil
	case *sqlast.JoinRef:
		l, err := b.buildTableRef(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.buildTableRef(x.R)
		if err != nil {
			return nil, err
		}
		j := newJoin(l, r, x.Type, x.On, b.opts)
		if x.Alias != "" {
			return &Alias{Input: j, schema: j.Schema().Qualify(x.Alias)}, nil
		}
		return j, nil
	}
	return nil, fmt.Errorf("unsupported table reference %T", tr)
}

// Alias re-qualifies its input's columns under a new table alias.
type Alias struct {
	Input  Node
	schema *eval.BoundSchema
}

func (n *Alias) Schema() *eval.BoundSchema { return n.schema }

// newJoin builds a join node, splitting equi-join keys out of the ON
// condition.
func newJoin(l, r Node, jt sqlast.JoinType, on sqlast.Expr, opts *Options) *Join {
	cols := append(append([]eval.BoundCol{}, l.Schema().Cols...), r.Schema().Cols...)
	j := &Join{L: l, R: r, Type: jt, Method: opts.Ablate.ForceJoin, schema: eval.NewBoundSchema(cols)}
	if on != nil {
		keysL, keysR, residual := splitEqui(on, l.Schema(), r.Schema())
		j.LeftKeys, j.RightKeys, j.Residual = keysL, keysR, residual
	}
	return j
}

// splitEqui extracts equi-join conjuncts "lexpr = rexpr" whose sides
// resolve entirely against opposite inputs.
func splitEqui(on sqlast.Expr, ls, rs *eval.BoundSchema) (keysL, keysR []sqlast.Expr, residual sqlast.Expr) {
	for _, conj := range conjuncts(on) {
		eq, ok := conj.(*sqlast.Binary)
		if ok && eq.Op == "=" {
			switch {
			case resolvesIn(eq.L, ls) && resolvesIn(eq.R, rs):
				keysL = append(keysL, eq.L)
				keysR = append(keysR, eq.R)
				continue
			case resolvesIn(eq.L, rs) && resolvesIn(eq.R, ls):
				keysL = append(keysL, eq.R)
				keysR = append(keysR, eq.L)
				continue
			}
		}
		residual = andExpr(residual, conj)
	}
	return keysL, keysR, residual
}

// conjuncts flattens nested ANDs.
func conjuncts(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlast.Expr{e}
}

func andExpr(a, b sqlast.Expr) sqlast.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &sqlast.Binary{Op: "AND", L: a, R: b}
}

// resolvesIn reports whether every column reference in e resolves in the
// schema and e references at least one column (a pure literal "resolves"
// anywhere but makes a useless join key).
func resolvesIn(e sqlast.Expr, s *eval.BoundSchema) bool {
	refs := sqlast.ColumnRefs(e)
	if len(refs) == 0 {
		return false
	}
	for _, c := range refs {
		_, found, err := s.Resolve(c.Table, c.Name)
		if err != nil || !found {
			return false
		}
	}
	return !sqlast.HasSubquery(e)
}

// --- aggregate rewriting ---

// aggRewriter replaces aggregate calls and GROUP BY key expressions with
// references to the GroupBy node's output columns.
type aggRewriter struct {
	keyNames map[string]string // key expr string -> output column name
	specs    []AggSpec
	seen     map[string]string // agg call string -> output column name
	// text holds the canonical text of every node of the expression being
	// rewritten, rendered once (keys and aggregate calls are matched by
	// text; stringifying per node would be quadratic in the depth).
	text map[sqlast.Expr]string
}

func newAggRewriter(keys []sqlast.Expr) *aggRewriter {
	ar := &aggRewriter{keyNames: map[string]string{}, seen: map[string]string{}}
	for i, k := range keys {
		name := "$key" + strconv.Itoa(i)
		if c, ok := k.(*sqlast.ColumnRef); ok {
			name = c.Name
		}
		ar.keyNames[k.String()] = name
	}
	return ar
}

// rewrite returns e with aggregate calls and key expressions replaced by
// output column references.
func (ar *aggRewriter) rewrite(e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	if len(ar.keyNames) == 0 && !hasAggregateCall(e) {
		return e // no key and no aggregate: nothing to look up
	}
	ar.text = sqlast.SubexprText(e)
	return ar.rewriteNode(e)
}

// hasAggregateCall reports whether e calls an aggregate function outside
// subqueries.
func hasAggregateCall(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if fc, ok := n.(*sqlast.FuncCall); ok && aggs.IsAggregate(fc.Name) {
			found = true
		}
		return !found
	})
	return found
}

func (ar *aggRewriter) rewriteNode(e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	if name, ok := ar.keyNames[ar.text[e]]; ok {
		if c, isCol := e.(*sqlast.ColumnRef); isCol {
			// Plain column keys keep their name; no rewrite needed unless
			// qualified differently.
			return &sqlast.ColumnRef{Name: c.Name}
		}
		return &sqlast.ColumnRef{Name: name}
	}
	switch x := e.(type) {
	case *sqlast.FuncCall:
		if aggs.IsAggregate(x.Name) {
			key := ar.text[x]
			if name, ok := ar.seen[key]; ok {
				return &sqlast.ColumnRef{Name: name}
			}
			name := "$agg" + strconv.Itoa(len(ar.specs))
			ar.seen[key] = name
			ar.specs = append(ar.specs, AggSpec{Name: name, Call: x})
			return &sqlast.ColumnRef{Name: name}
		}
		args := make([]sqlast.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = ar.rewriteNode(a)
		}
		return &sqlast.FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}
	case *sqlast.Unary:
		return &sqlast.Unary{Op: x.Op, X: ar.rewriteNode(x.X)}
	case *sqlast.Binary:
		return &sqlast.Binary{Op: x.Op, L: ar.rewriteNode(x.L), R: ar.rewriteNode(x.R)}
	case *sqlast.Between:
		return &sqlast.Between{X: ar.rewriteNode(x.X), Lo: ar.rewriteNode(x.Lo), Hi: ar.rewriteNode(x.Hi), Not: x.Not}
	case *sqlast.InList:
		list := make([]sqlast.Expr, len(x.List))
		for i, it := range x.List {
			list[i] = ar.rewriteNode(it)
		}
		return &sqlast.InList{X: ar.rewriteNode(x.X), List: list, Not: x.Not}
	case *sqlast.IsNull:
		return &sqlast.IsNull{X: ar.rewriteNode(x.X), Not: x.Not}
	case *sqlast.Like:
		return &sqlast.Like{X: ar.rewriteNode(x.X), Pattern: ar.rewriteNode(x.Pattern), Not: x.Not}
	case *sqlast.Case:
		c := &sqlast.Case{Operand: ar.rewriteNode(x.Operand), Else: ar.rewriteNode(x.Else)}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, sqlast.When{Cond: ar.rewriteNode(w.Cond), Then: ar.rewriteNode(w.Then)})
		}
		return c
	case *sqlast.WindowFunc:
		// The window's own function is not a group aggregate, but its
		// arguments and PARTITION/ORDER expressions may reference group
		// aggregates (e.g. avg(sum(s)) OVER ()).
		nf := &sqlast.FuncCall{Name: x.Func.Name, Star: x.Func.Star, Distinct: x.Func.Distinct}
		for _, a := range x.Func.Args {
			nf.Args = append(nf.Args, ar.rewriteNode(a))
		}
		w := &sqlast.WindowFunc{Func: nf, Frame: x.Frame}
		for _, pe := range x.PartitionBy {
			w.PartitionBy = append(w.PartitionBy, ar.rewriteNode(pe))
		}
		for _, o := range x.OrderBy {
			w.OrderBy = append(w.OrderBy, sqlast.OrderItem{Expr: ar.rewriteNode(o.Expr), Desc: o.Desc})
		}
		return w
	}
	return e
}

func newGroupBy(input Node, keys []sqlast.Expr, specs []AggSpec) (*GroupBy, error) {
	gb := &GroupBy{Input: input, Keys: keys, Aggs: specs}
	var cols []eval.BoundCol
	for i, k := range keys {
		if err := checkResolvable(k, input.Schema()); err != nil {
			return nil, fmt.Errorf("GROUP BY key %d: %v", i+1, err)
		}
		if c, ok := k.(*sqlast.ColumnRef); ok {
			cols = append(cols, eval.BoundCol{Name: c.Name})
		} else {
			cols = append(cols, eval.BoundCol{Name: "$key" + strconv.Itoa(i)})
		}
	}
	for _, s := range specs {
		if !s.Call.Star {
			for _, a := range s.Call.Args {
				if err := checkResolvable(a, input.Schema()); err != nil {
					return nil, fmt.Errorf("aggregate %s: %v", s.Call, err)
				}
			}
		}
		if s.Call.Star && s.Call.Name != "count" {
			return nil, fmt.Errorf("%s(*) is not supported", s.Call.Name)
		}
		if !s.Call.Star && len(s.Call.Args) != aggs.NumArgs(s.Call.Name) {
			return nil, fmt.Errorf("%s() takes %d argument(s)", s.Call.Name, aggs.NumArgs(s.Call.Name))
		}
		cols = append(cols, eval.BoundCol{Name: s.Name})
	}
	gb.schema = eval.NewBoundSchema(cols)
	return gb, nil
}
