package eval

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file lowers expression trees into closure chains, HYPER-style: the
// tree is walked once at compile time — resolving column ordinals, folding
// constants, specializing operator dispatch, prebuilding IN-list sets and
// LIKE matchers — so the per-row cost is a chain of direct closure calls
// with no type switch, no name lookup and no pattern re-analysis.
//
// Compilation is total: every node kind has a closure, and a node the
// compiler does not know compiles to one that reports "cannot evaluate" on
// each evaluation. Errors are never raised at compile time — a bad operator,
// an ambiguous column or a division by zero surfaces per evaluation, so a
// statement over zero rows still succeeds.
//
// Thread-safety contract: a compiled closure captures only immutable data
// (AST nodes, folded constants, prebuilt matchers and sets). All per-row
// state comes from the *Context argument, so one CompiledExpr instance is
// shared safely by every morsel worker as long as each worker evaluates
// with its own Context.

// evalFn is the compiled form of one expression node.
type evalFn func(*Context) (types.Value, error)

// CompiledExpr is a closure-compiled expression. The zero value is what a
// nil (absent, optional) expression compiles to and must not be evaluated.
type CompiledExpr struct {
	fn evalFn
}

// Eval runs the compiled expression under ctx.
func (c CompiledExpr) Eval(ctx *Context) (types.Value, error) { return c.fn(ctx) }

// EvalBool runs the compiled predicate under SQL three-valued logic;
// NULL is false.
func (c CompiledExpr) EvalBool(ctx *Context) (bool, error) {
	v, err := c.fn(ctx)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

// Compile lowers e into a closure chain resolving column references against
// env. env may be nil (every column then resolves dynamically through the
// binding chain). A nil e compiles to the zero CompiledExpr.
//
// Contract: at evaluation time the innermost Binding's schema must be env —
// ordinals resolved at compile time are read straight out of Binding.Row.
// References not found in env resolve through the full binding chain at
// runtime (correlated outer columns).
func Compile(env *BoundSchema, e sqlast.Expr) CompiledExpr {
	if e == nil {
		return CompiledExpr{}
	}
	c := &compiler{env: env}
	return CompiledExpr{fn: c.compile(e)}
}

// CompileMany compiles each expression of a projection or key list.
func CompileMany(env *BoundSchema, exprs []sqlast.Expr) []CompiledExpr {
	if len(exprs) == 0 {
		return nil
	}
	out := make([]CompiledExpr, len(exprs))
	for i, e := range exprs {
		out[i] = Compile(env, e)
	}
	return out
}

type compiler struct {
	env *BoundSchema
	// impure counts the impure nodes (see pureNode) compiled so far. A
	// subtree that leaves it unchanged is constant.
	impure int
}

// pureNode reports whether a node's value is a function of its children's
// values alone. Column, hook and subquery references read the Context;
// aggregate calls and unknown nodes are an error of each evaluation, never a
// constant.
func pureNode(e sqlast.Expr) bool {
	switch x := e.(type) {
	case *sqlast.Literal, *sqlast.Unary, *sqlast.Binary, *sqlast.Between,
		*sqlast.InList, *sqlast.IsNull, *sqlast.Like, *sqlast.Case:
		return true
	case *sqlast.FuncCall:
		return !aggs.IsAggregate(x.Name)
	}
	return false
}

// errFn compiles to a closure that fails with err on every evaluation.
func errFn(err error) evalFn {
	return func(*Context) (types.Value, error) { return types.Null, err }
}

// constFn compiles to a closure returning v.
func constFn(v types.Value) evalFn {
	return func(*Context) (types.Value, error) { return v, nil }
}

// errNoSubquery is what a subquery node reports under a Context that has no
// runner.
var errNoSubquery = fmt.Errorf("subqueries not available in this context")

// compile lowers one node and folds it when its subtree is constant.
func (c *compiler) compile(e sqlast.Expr) evalFn {
	if lit, ok := e.(*sqlast.Literal); ok {
		return constFn(lit.Val)
	}
	before := c.impure
	if !pureNode(e) {
		c.impure++
	}
	fn := c.compileNode(e)
	if c.impure == before {
		if v, ok := foldFn(fn); ok {
			return constFn(v)
		}
	}
	return fn
}

// foldConst evaluates e at compile time when it is a constant (see foldFn);
// the kernel compilers use it to recognise constant operands. They ask at
// every node on their way down a tree, so whether anything below a node is
// impure is decided once per node and remembered: the walk down a deep
// operator chain stays linear. Only a constant subtree is compiled, once, and
// its parent is not descended into.
func (c *selCompiler) foldConst(e sqlast.Expr) (types.Value, bool) {
	if lit, ok := e.(*sqlast.Literal); ok {
		return lit.Val, true
	}
	if !c.pureTree(e) {
		return types.Null, false
	}
	return foldFn((&compiler{}).compile(e))
}

// pureTree reports whether every node of e's subtree is pure (see pureNode).
func (c *selCompiler) pureTree(e sqlast.Expr) bool {
	if _, lit := e.(*sqlast.Literal); lit || !pureNode(e) {
		return lit
	}
	if pure, known := c.pure[e]; known {
		return pure
	}
	pure := true
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if n == e {
			return true
		}
		pure = pure && c.pureTree(n)
		return false // children only; they recurse for themselves
	})
	if c.pure == nil {
		c.pure = map[sqlast.Expr]bool{}
	}
	c.pure[e] = pure
	return pure
}

// foldFn runs the closure of a constant subtree once per Nav mode. Folding
// is only safe when both runs succeed with the identical result: ctx.Nav
// changes NULL arithmetic (IGNORE NAV), and errors (division by zero, bad
// arity) must stay errors of each evaluation, not of compilation.
func foldFn(fn evalFn) (types.Value, bool) {
	keep, err := fn(&Context{Nav: types.KeepNav})
	if err != nil {
		return types.Null, false
	}
	ign, err := fn(&Context{Nav: types.IgnoreNav})
	if err != nil || keep != ign {
		return types.Null, false
	}
	return keep, true
}

func (c *compiler) compileNode(e sqlast.Expr) evalFn {
	switch x := e.(type) {
	case *sqlast.Unary:
		return c.compileUnary(x)
	case *sqlast.Binary:
		return c.compileBinary(x)
	case *sqlast.Between:
		return c.compileBetween(x)
	case *sqlast.InList:
		return c.compileInList(x)
	case *sqlast.IsNull:
		xf := c.compile(x.X)
		not := x.Not
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}
	case *sqlast.Like:
		return c.compileLike(x)
	case *sqlast.Case:
		return c.compileCase(x)
	case *sqlast.FuncCall:
		return c.compileFunc(x)
	}
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		return c.compileColumn(x)
	case *sqlast.InSubquery:
		xf := c.compile(x.X)
		not := x.Not
		return func(ctx *Context) (types.Value, error) {
			if ctx.Subquery == nil {
				return types.Null, errNoSubquery
			}
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			res, err := ctx.Subquery.In(x.Sub, ctx.Binding, v)
			if err != nil {
				return types.Null, err
			}
			if not {
				return not3(res), nil
			}
			return res, nil
		}
	case *sqlast.Exists:
		not := x.Not
		return func(ctx *Context) (types.Value, error) {
			if ctx.Subquery == nil {
				return types.Null, errNoSubquery
			}
			ok, err := ctx.Subquery.Exists(x.Sub, ctx.Binding)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(ok != not), nil
		}
	case *sqlast.ScalarSubquery:
		return func(ctx *Context) (types.Value, error) {
			if ctx.Subquery == nil {
				return types.Null, errNoSubquery
			}
			return ctx.Subquery.Scalar(x.Sub, ctx.Binding)
		}
	case *sqlast.CurrentV:
		return func(ctx *Context) (types.Value, error) {
			if ctx.CurrentV == nil {
				return types.Null, fmt.Errorf("cv(%s) outside a formula right side", x.Dim)
			}
			return ctx.CurrentV(x.Dim)
		}
	case *sqlast.CellRef:
		return func(ctx *Context) (types.Value, error) {
			if ctx.Cell == nil {
				return types.Null, fmt.Errorf("cell reference %s outside a spreadsheet clause", x)
			}
			return ctx.Cell(x)
		}
	case *sqlast.CellAgg:
		return func(ctx *Context) (types.Value, error) {
			if ctx.CellAgg == nil {
				return types.Null, fmt.Errorf("cell aggregate %s outside a spreadsheet clause", x)
			}
			return ctx.CellAgg(x)
		}
	case *sqlast.Previous:
		return func(ctx *Context) (types.Value, error) {
			if ctx.Previous == nil {
				return types.Null, fmt.Errorf("previous() is only valid in UNTIL conditions")
			}
			return ctx.Previous(x.Cell)
		}
	case *sqlast.Present:
		not := x.Not
		return func(ctx *Context) (types.Value, error) {
			if ctx.Present == nil {
				return types.Null, fmt.Errorf("IS PRESENT outside a spreadsheet clause")
			}
			ok, err := ctx.Present(x.Cell)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(ok != not), nil
		}
	case *sqlast.Star:
		return errFn(fmt.Errorf("'*' is not a value expression"))
	}
	return errFn(fmt.Errorf("cannot evaluate %T", e))
}

// inListSetThreshold is the list size past which an all-literal IN-list is
// hashed instead of scanned (pushed predicates from the spreadsheet
// optimizer routinely carry dozens of values).
const inListSetThreshold = 9

func (c *compiler) compileColumn(x *sqlast.ColumnRef) evalFn {
	if c.env != nil {
		idx, found, err := c.env.Resolve(x.Table, x.Name)
		if err != nil {
			// Ambiguous in the innermost schema: reported on every row, after
			// the nil-binding check every column reference makes.
			ambig := err
			return func(ctx *Context) (types.Value, error) {
				if ctx.Binding == nil {
					return types.Null, fmt.Errorf("column %s referenced with no row bound", x)
				}
				return types.Null, ambig
			}
		}
		if found {
			return func(ctx *Context) (types.Value, error) {
				b := ctx.Binding
				if b == nil {
					return types.Null, fmt.Errorf("column %s referenced with no row bound", x)
				}
				return b.Row[idx], nil
			}
		}
	}
	// Not visible in the compile-time schema (or no schema): resolve through
	// the binding chain at runtime — correlated outer references.
	return func(ctx *Context) (types.Value, error) {
		if ctx.Binding == nil {
			return types.Null, fmt.Errorf("column %s referenced with no row bound", x)
		}
		return ctx.Binding.Lookup(x.Table, x.Name)
	}
}

func (c *compiler) compileUnary(x *sqlast.Unary) evalFn {
	xf := c.compile(x.X)
	switch x.Op {
	case "-":
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			return types.Neg(v, ctx.Nav)
		}
	case "NOT":
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(!v.Bool()), nil
		}
	}
	return errFn(fmt.Errorf("unknown unary operator %q", x.Op))
}

func (c *compiler) compileBinary(x *sqlast.Binary) evalFn {
	lf := c.compile(x.L)
	rf := c.compile(x.R)
	switch x.Op {
	case "AND":
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && !l.Bool() {
				return types.NewBool(false), nil
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && !r.Bool() {
				return types.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(true), nil
		}
	case "OR":
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			if !l.IsNull() && l.Bool() {
				return types.NewBool(true), nil
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			if !r.IsNull() && r.Bool() {
				return types.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(false), nil
		}
	case "+", "-", "*", "/", "%":
		op := x.Op[0]
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			return types.Arith(op, l, r, ctx.Nav)
		}
	case "||":
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewString(l.String() + r.String()), nil
		}
	case "=", "<>":
		want := x.Op == "="
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(types.Equal(l, r) == want), nil
		}
	case "<", "<=", ">", ">=":
		test := orderTest(x.Op)
		return func(ctx *Context) (types.Value, error) {
			l, err := lf(ctx)
			if err != nil {
				return types.Null, err
			}
			r, err := rf(ctx)
			if err != nil {
				return types.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return types.Null, nil
			}
			// Ordered comparison across incompatible kinds is false, not an
			// error — matching CompareSQL.
			if l.IsNumeric() != r.IsNumeric() {
				return types.NewBool(false), nil
			}
			return types.NewBool(test(types.Compare(l, r))), nil
		}
	}
	return errFn(fmt.Errorf("unknown operator %q", x.Op))
}

// orderTest maps an ordered comparison operator to its sign test once, so
// the per-row path has no operator-string dispatch.
func orderTest(op string) func(int) bool {
	switch op {
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	default: // ">="
		return func(c int) bool { return c >= 0 }
	}
}

func (c *compiler) compileBetween(x *sqlast.Between) evalFn {
	xf := c.compile(x.X)
	lof := c.compile(x.Lo)
	hif := c.compile(x.Hi)
	not := x.Not
	return func(ctx *Context) (types.Value, error) {
		v, err := xf(ctx)
		if err != nil {
			return types.Null, err
		}
		lo, err := lof(ctx)
		if err != nil {
			return types.Null, err
		}
		hi, err := hif(ctx)
		if err != nil {
			return types.Null, err
		}
		res := and3(CompareSQL(">=", v, lo), CompareSQL("<=", v, hi))
		if not {
			return not3(res), nil
		}
		return res, nil
	}
}

func (c *compiler) compileInList(x *sqlast.InList) evalFn {
	xf := c.compile(x.X)
	not := x.Not

	lits := make([]types.Value, 0, len(x.List))
	allLit := true
	sawNull := false
	for _, it := range x.List {
		lit, ok := it.(*sqlast.Literal)
		if !ok {
			allLit = false
			break
		}
		if lit.Val.IsNull() {
			sawNull = true
			continue
		}
		lits = append(lits, lit.Val)
	}

	if allLit && len(x.List) >= inListSetThreshold {
		// Large literal list: hash it now, probe per row with a stack key
		// buffer (map index over string([]byte) does not allocate).
		set := make(map[string]bool, len(lits))
		for _, v := range lits {
			set[types.Key(v)] = true
		}
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			var arr [48]byte
			k := types.AppendKey(arr[:0], v)
			res := types.Null
			if set[string(k)] {
				res = types.NewBool(true)
			} else if !sawNull {
				res = types.NewBool(false)
			}
			if not {
				return not3(res), nil
			}
			return res, nil
		}
	}
	if allLit {
		// Small literal list: linear Equal scan, no per-row key encoding.
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			res := types.Null
			found := false
			for _, iv := range lits {
				if types.Equal(v, iv) {
					found = true
					break
				}
			}
			if found {
				res = types.NewBool(true)
			} else if !sawNull {
				res = types.NewBool(false)
			}
			if not {
				return not3(res), nil
			}
			return res, nil
		}
	}
	// Members with non-literal expressions: evaluate in order, stopping at
	// the first match (later members' errors are then never raised).
	items := make([]evalFn, len(x.List))
	for i, it := range x.List {
		items[i] = c.compile(it)
	}
	return func(ctx *Context) (types.Value, error) {
		v, err := xf(ctx)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		res := types.Null
		nullMember := false
		found := false
		for _, f := range items {
			iv, err := f(ctx)
			if err != nil {
				return types.Null, err
			}
			if iv.IsNull() {
				nullMember = true
				continue
			}
			if types.Equal(v, iv) {
				found = true
				break
			}
		}
		if found {
			res = types.NewBool(true)
		} else if !nullMember {
			res = types.NewBool(false)
		}
		if not {
			return not3(res), nil
		}
		return res, nil
	}
}

func (c *compiler) compileLike(x *sqlast.Like) evalFn {
	xf := c.compile(x.X)
	not := x.Not
	if lit, ok := x.Pattern.(*sqlast.Literal); ok {
		if lit.Val.IsNull() {
			return func(ctx *Context) (types.Value, error) {
				if _, err := xf(ctx); err != nil {
					return types.Null, err
				}
				return types.Null, nil
			}
		}
		m := compileLike(lit.Val.String())
		return func(ctx *Context) (types.Value, error) {
			v, err := xf(ctx)
			if err != nil {
				return types.Null, err
			}
			if v.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(m.match(v.String()) != not), nil
		}
	}
	pf := c.compile(x.Pattern)
	return func(ctx *Context) (types.Value, error) {
		v, err := xf(ctx)
		if err != nil {
			return types.Null, err
		}
		p, err := pf(ctx)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || p.IsNull() {
			return types.Null, nil
		}
		m := matcherFor(x, p.String())
		return types.NewBool(m.match(v.String()) != not), nil
	}
}

func (c *compiler) compileCase(x *sqlast.Case) evalFn {
	conds := make([]evalFn, len(x.Whens))
	thens := make([]evalFn, len(x.Whens))
	for i, w := range x.Whens {
		conds[i] = c.compile(w.Cond)
		thens[i] = c.compile(w.Then)
	}
	var elsef evalFn
	if x.Else != nil {
		elsef = c.compile(x.Else)
	} else {
		elsef = constFn(types.Null)
	}
	if x.Operand != nil {
		opf := c.compile(x.Operand)
		return func(ctx *Context) (types.Value, error) {
			op, err := opf(ctx)
			if err != nil {
				return types.Null, err
			}
			for i, cf := range conds {
				wv, err := cf(ctx)
				if err != nil {
					return types.Null, err
				}
				if !op.IsNull() && !wv.IsNull() && types.Equal(op, wv) {
					return thens[i](ctx)
				}
			}
			return elsef(ctx)
		}
	}
	return func(ctx *Context) (types.Value, error) {
		for i, cf := range conds {
			wv, err := cf(ctx)
			if err != nil {
				return types.Null, err
			}
			if !wv.IsNull() && wv.Bool() {
				return thens[i](ctx)
			}
		}
		return elsef(ctx)
	}
}

func (c *compiler) compileFunc(x *sqlast.FuncCall) evalFn {
	if aggs.IsAggregate(x.Name) {
		return errFn(fmt.Errorf("aggregate %s() is not allowed in this context", x.Name))
	}
	argfs := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		argfs[i] = c.compile(a)
	}
	name := x.Name
	return func(ctx *Context) (types.Value, error) {
		var arr [4]types.Value
		var args []types.Value
		if len(argfs) <= len(arr) {
			args = arr[:len(argfs)]
		} else {
			args = make([]types.Value, len(argfs))
		}
		for i, f := range argfs {
			v, err := f(ctx)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return CallScalar(name, args)
	}
}
