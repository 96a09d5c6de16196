package eval

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file is the tree-walking interpreter the engine ran before closure
// compilation became total. It is no longer part of the build: it survives
// as the reference TestCompileMatchesInterpreter* and FuzzExprKernel compare
// the compiled closures and the batch kernels against — value, error and
// error text — and it is deliberately a separate implementation, sharing
// only the leaf helpers (CompareSQL, and3/not3, CallScalar, the LIKE
// matcher) with the compiler.

// Eval computes the value of e under ctx.
func Eval(ctx *Context, e sqlast.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, nil
	case *sqlast.ColumnRef:
		if ctx.Binding == nil {
			return types.Null, fmt.Errorf("column %s referenced with no row bound", x)
		}
		return ctx.Binding.Lookup(x.Table, x.Name)
	case *sqlast.Unary:
		return evalUnary(ctx, x)
	case *sqlast.Binary:
		return evalBinary(ctx, x)
	case *sqlast.Between:
		return evalBetween(ctx, x)
	case *sqlast.InList:
		return evalInList(ctx, x)
	case *sqlast.InSubquery:
		return evalInSubquery(ctx, x)
	case *sqlast.Exists:
		if ctx.Subquery == nil {
			return types.Null, fmt.Errorf("subqueries not available in this context")
		}
		ok, err := ctx.Subquery.Exists(x.Sub, ctx.Binding)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(ok != x.Not), nil
	case *sqlast.ScalarSubquery:
		if ctx.Subquery == nil {
			return types.Null, fmt.Errorf("subqueries not available in this context")
		}
		return ctx.Subquery.Scalar(x.Sub, ctx.Binding)
	case *sqlast.IsNull:
		v, err := Eval(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqlast.Like:
		return evalLike(ctx, x)
	case *sqlast.Case:
		return evalCase(ctx, x)
	case *sqlast.FuncCall:
		return evalFunc(ctx, x)
	case *sqlast.CurrentV:
		if ctx.CurrentV == nil {
			return types.Null, fmt.Errorf("cv(%s) outside a formula right side", x.Dim)
		}
		return ctx.CurrentV(x.Dim)
	case *sqlast.CellRef:
		if ctx.Cell == nil {
			return types.Null, fmt.Errorf("cell reference %s outside a spreadsheet clause", x)
		}
		return ctx.Cell(x)
	case *sqlast.CellAgg:
		if ctx.CellAgg == nil {
			return types.Null, fmt.Errorf("cell aggregate %s outside a spreadsheet clause", x)
		}
		return ctx.CellAgg(x)
	case *sqlast.Previous:
		if ctx.Previous == nil {
			return types.Null, fmt.Errorf("previous() is only valid in UNTIL conditions")
		}
		return ctx.Previous(x.Cell)
	case *sqlast.Present:
		if ctx.Present == nil {
			return types.Null, fmt.Errorf("IS PRESENT outside a spreadsheet clause")
		}
		ok, err := ctx.Present(x.Cell)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(ok != x.Not), nil
	case *sqlast.Star:
		return types.Null, fmt.Errorf("'*' is not a value expression")
	}
	return types.Null, fmt.Errorf("cannot evaluate %T", e)
}

// EvalBool evaluates a predicate under SQL three-valued logic; NULL is false.
func EvalBool(ctx *Context, e sqlast.Expr) (bool, error) {
	v, err := Eval(ctx, e)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}

func evalUnary(ctx *Context, x *sqlast.Unary) (types.Value, error) {
	v, err := Eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	switch x.Op {
	case "-":
		return types.Neg(v, ctx.Nav)
	case "NOT":
		if v.IsNull() {
			return types.Null, nil
		}
		return types.NewBool(!v.Bool()), nil
	}
	return types.Null, fmt.Errorf("unknown unary operator %q", x.Op)
}

func evalBinary(ctx *Context, x *sqlast.Binary) (types.Value, error) {
	switch x.Op {
	case "AND":
		l, err := Eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return types.NewBool(false), nil
		}
		r, err := Eval(ctx, x.R)
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
	case "OR":
		l, err := Eval(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return types.NewBool(true), nil
		}
		r, err := Eval(ctx, x.R)
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
	l, err := Eval(ctx, x.L)
	if err != nil {
		return types.Null, err
	}
	r, err := Eval(ctx, x.R)
	if err != nil {
		return types.Null, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		return types.Arith(x.Op[0], l, r, ctx.Nav)
	case "||":
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.NewString(l.String() + r.String()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		return CompareSQL(x.Op, l, r), nil
	}
	return types.Null, fmt.Errorf("unknown operator %q", x.Op)
}

func evalBetween(ctx *Context, x *sqlast.Between) (types.Value, error) {
	v, err := Eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	lo, err := Eval(ctx, x.Lo)
	if err != nil {
		return types.Null, err
	}
	hi, err := Eval(ctx, x.Hi)
	if err != nil {
		return types.Null, err
	}
	ge := CompareSQL(">=", v, lo)
	le := CompareSQL("<=", v, hi)
	res := and3(ge, le)
	if x.Not {
		return not3(res), nil
	}
	return res, nil
}

// inListSet is the hashed membership set for large literal IN-lists (built
// per evaluation here; the compiler builds its own once).
type inListSet struct {
	set     map[string]bool
	sawNull bool
}

func evalInList(ctx *Context, x *sqlast.InList) (types.Value, error) {
	v, err := Eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	if len(x.List) >= inListSetThreshold {
		s := &inListSet{set: make(map[string]bool, len(x.List))}
		for _, it := range x.List {
			lit, ok := it.(*sqlast.Literal)
			if !ok {
				s = nil // non-literal member: scan instead
				break
			}
			if lit.Val.IsNull() {
				s.sawNull = true
				continue
			}
			s.set[types.Key(lit.Val)] = true
		}
		if s != nil {
			var res types.Value
			switch {
			case v.IsNull():
				res = types.Null
			case s.set[types.Key(v)]:
				res = types.NewBool(true)
			case s.sawNull:
				res = types.Null
			default:
				res = types.NewBool(false)
			}
			if x.Not {
				return not3(res), nil
			}
			return res, nil
		}
	}
	res, err := inValues(ctx, v, func(yield func(types.Value) error) error {
		for _, it := range x.List {
			iv, err := Eval(ctx, it)
			if err != nil {
				return err
			}
			if err := yield(iv); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return types.Null, err
	}
	if x.Not {
		return not3(res), nil
	}
	return res, nil
}

func evalInSubquery(ctx *Context, x *sqlast.InSubquery) (types.Value, error) {
	if ctx.Subquery == nil {
		return types.Null, fmt.Errorf("subqueries not available in this context")
	}
	v, err := Eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	res, err := ctx.Subquery.In(x.Sub, ctx.Binding, v)
	if err != nil {
		return types.Null, err
	}
	if x.Not {
		return not3(res), nil
	}
	return res, nil
}

// errFoundMatch short-circuits the membership scan.
var errFoundMatch = fmt.Errorf("match")

// inValues implements SQL IN semantics: TRUE on a match, NULL if no match
// but some member (or the probe) is NULL, else FALSE.
func inValues(_ *Context, v types.Value, each func(func(types.Value) error) error) (types.Value, error) {
	if v.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	err := each(func(iv types.Value) error {
		if iv.IsNull() {
			sawNull = true
			return nil
		}
		if types.Equal(v, iv) {
			return errFoundMatch
		}
		return nil
	})
	if err == errFoundMatch {
		return types.NewBool(true), nil
	}
	if err != nil {
		return types.Null, err
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(false), nil
}

func evalLike(ctx *Context, x *sqlast.Like) (types.Value, error) {
	v, err := Eval(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	p, err := Eval(ctx, x.Pattern)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return types.Null, nil
	}
	return types.NewBool(compileLike(p.String()).match(v.String()) != x.Not), nil
}

func evalCase(ctx *Context, x *sqlast.Case) (types.Value, error) {
	if x.Operand != nil {
		op, err := Eval(ctx, x.Operand)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := Eval(ctx, w.Cond)
			if err != nil {
				return types.Null, err
			}
			if !op.IsNull() && !wv.IsNull() && types.Equal(op, wv) {
				return Eval(ctx, w.Then)
			}
		}
	} else {
		for _, w := range x.Whens {
			ok, err := EvalBool(ctx, w.Cond)
			if err != nil {
				return types.Null, err
			}
			if ok {
				return Eval(ctx, w.Then)
			}
		}
	}
	if x.Else != nil {
		return Eval(ctx, x.Else)
	}
	return types.Null, nil
}

// evalFunc dispatches scalar function calls. Aggregate names reaching the
// evaluator directly are an error: the planner rewrites aggregates into
// synthetic columns before evaluation, and cell aggregates become CellAgg
// nodes at parse time.
func evalFunc(ctx *Context, x *sqlast.FuncCall) (types.Value, error) {
	if aggs.IsAggregate(x.Name) {
		return types.Null, fmt.Errorf("aggregate %s() is not allowed in this context", x.Name)
	}
	args := make([]types.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := Eval(ctx, a)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	return CallScalar(x.Name, args)
}
