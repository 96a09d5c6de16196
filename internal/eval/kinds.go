package eval

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Static kinds. StaticKind computes, without evaluating anything, the kind
// every non-NULL value of an expression has: KindNull when it can only be
// NULL, KindUnseen when compile time cannot tell (a column or a scalar
// subquery the caller cannot type). Two kinds meet by UnionKind: NULL
// adds nothing, unseen makes unseen, INT and FLOAT make FLOAT, any other
// pair is a KindConflict. The result is sound: at run time a value has the
// static kind, is NULL, or is an INT where the static kind is FLOAT (IGNORE
// NAV turns a NULL operand into INT 0), so converting INT to FLOAT is the
// only conversion a caller that stores values of one known kind needs.

// KindUnseen is the static kind of an expression compile time cannot see.
// It is never a Value's kind.
const KindUnseen = types.Kind(0xff)

// KindConflict is the meeting of two kinds that share no kind.
type KindConflict struct{ A, B types.Kind }

func (e *KindConflict) Error() string {
	return fmt.Sprintf("%s and %s values do not share a kind", e.A, e.B)
}

// Known reports whether k is a kind values can have: not NULL, not unseen.
func Known(k types.Kind) bool { return k != types.KindNull && k != KindUnseen }

// UnionKind is the kind of values that are of kind a or of kind b: NULL
// adds nothing, unseen makes unseen, INT and FLOAT make FLOAT; ok is false
// for any other pair of known kinds.
func UnionKind(a, b types.Kind) (types.Kind, bool) {
	switch {
	case a == b, b == types.KindNull:
		return a, true
	case a == types.KindNull:
		return b, true
	case a == KindUnseen, b == KindUnseen:
		return KindUnseen, true
	case a == types.KindInt && b == types.KindFloat, a == types.KindFloat && b == types.KindInt:
		return types.KindFloat, true
	}
	return types.KindNull, false
}

// KindEnv resolves the leaves of an expression for StaticKind. A nil hook
// makes its leaves unseen.
type KindEnv struct {
	// Col is a column reference's kind.
	Col func(*sqlast.ColumnRef) types.Kind
	// Cell is a spreadsheet cell reference's kind, CV that of cv(dim).
	Cell func(*sqlast.CellRef) types.Kind
	CV   func(dim string) types.Kind
	// Sub is a scalar subquery's kind: its one column's.
	Sub func(*sqlast.SelectStmt) types.Kind
	// IgnoreNav is the spreadsheet's IGNORE NAV: arithmetic reads a NULL
	// operand as INT 0.
	IgnoreNav bool
}

// StaticKind returns e's static kind under env. The error is a
// *KindConflict when the arms of a CASE, COALESCE, NULLIF, LEAST or
// GREATEST whose kind the result takes share no kind.
func StaticKind(e sqlast.Expr, env *KindEnv) (types.Kind, error) {
	switch x := e.(type) {
	case nil:
		return types.KindNull, nil
	case *sqlast.Literal:
		return x.Val.K, nil
	case *sqlast.ColumnRef:
		if env.Col == nil {
			return KindUnseen, nil
		}
		return env.Col(x), nil
	case *sqlast.CellRef:
		if env.Cell == nil {
			return KindUnseen, nil
		}
		return env.Cell(x), nil
	case *sqlast.CurrentV:
		if env.CV == nil {
			return KindUnseen, nil
		}
		return env.CV(x.Dim), nil
	case *sqlast.Unary:
		if x.Op == "NOT" {
			return types.KindBool, nil
		}
		k, err := StaticKind(x.X, env)
		if err != nil {
			return types.KindNull, err
		}
		return arithKind('-', k, types.KindInt, env.IgnoreNav), nil
	case *sqlast.Binary:
		switch x.Op {
		case "+", "-", "*", "/", "%":
			l, err := StaticKind(x.L, env)
			if err != nil {
				return types.KindNull, err
			}
			r, err := StaticKind(x.R, env)
			if err != nil {
				return types.KindNull, err
			}
			return arithKind(x.Op[0], l, r, env.IgnoreNav), nil
		case "||":
			return types.KindString, nil
		}
		return types.KindBool, nil // AND, OR and the comparisons
	case *sqlast.Between, *sqlast.InList, *sqlast.InSubquery, *sqlast.Exists,
		*sqlast.IsNull, *sqlast.Like, *sqlast.Present:
		return types.KindBool, nil
	case *sqlast.Case:
		arms := make([]sqlast.Expr, 0, len(x.Whens)+1)
		for _, w := range x.Whens {
			arms = append(arms, w.Then)
		}
		return unionOf(append(arms, x.Else), env)
	case *sqlast.ScalarSubquery:
		if env.Sub == nil {
			return KindUnseen, nil
		}
		return env.Sub(x.Sub), nil
	case *sqlast.FuncCall:
		return funcKind(x, env)
	case *sqlast.WindowFunc:
		switch f := x.Func; f.Name {
		case "row_number", "rank", "dense_rank":
			return types.KindInt, nil
		case "lag", "lead":
			if len(f.Args) > 2 {
				return unionOf([]sqlast.Expr{f.Args[0], f.Args[2]}, env)
			}
			return unionOf(f.Args[:min(len(f.Args), 1)], env)
		case "first_value", "last_value":
			return unionOf(f.Args[:min(len(f.Args), 1)], env)
		}
		return funcKind(x.Func, env)
	case *sqlast.CellAgg:
		var arg types.Kind
		if len(x.Args) > 0 {
			k, err := StaticKind(x.Args[0], env)
			if err != nil {
				return types.KindNull, err
			}
			arg = k
		}
		return aggKind(x.Func, arg), nil
	}
	return KindUnseen, nil // previous(), which only UNTIL reads
}

// unionOf is the union of the expressions' kinds.
func unionOf(es []sqlast.Expr, env *KindEnv) (types.Kind, error) {
	k := types.KindNull
	for _, e := range es {
		ek, err := StaticKind(e, env)
		if err != nil {
			return types.KindNull, err
		}
		u, ok := UnionKind(k, ek)
		if !ok {
			return types.KindNull, &KindConflict{A: k, B: ek}
		}
		k = u
	}
	return k, nil
}

// arithKind is the kind of l op r under types.Arith (unary minus is
// '-' with r INT): a non-numeric operand makes the operation fail, so it
// yields no value; INT with INT stays INT except under '/'; an unseen
// operand may be either number, which FLOAT covers.
func arithKind(op byte, l, r types.Kind, ignoreNav bool) types.Kind {
	num := func(k types.Kind) types.Kind {
		if k == types.KindNull && ignoreNav {
			return types.KindInt
		}
		return k
	}
	l, r = num(l), num(r)
	switch {
	case l == types.KindNull || r == types.KindNull:
		return types.KindNull
	case (l != types.KindInt && l != types.KindFloat && l != KindUnseen) ||
		(r != types.KindInt && r != types.KindFloat && r != KindUnseen):
		return types.KindNull
	case op == '/' || l != types.KindInt || r != types.KindInt:
		return types.KindFloat
	}
	return types.KindInt
}

// funcKind is a scalar function's result kind (CallScalar).
func funcKind(x *sqlast.FuncCall, env *KindEnv) (types.Kind, error) {
	if aggs.IsAggregate(x.Name) {
		var arg types.Kind
		if len(x.Args) > 0 && !x.Star {
			k, err := StaticKind(x.Args[0], env)
			if err != nil {
				return types.KindNull, err
			}
			arg = k
		}
		return aggKind(x.Name, arg), nil
	}
	switch x.Name {
	case "sqrt", "exp", "ln", "floor", "ceil", "ceiling", "round", "trunc", "power", "pow":
		return types.KindFloat, nil
	case "sign", "length", "len":
		return types.KindInt, nil
	case "upper", "lower", "substr", "substring", "concat":
		return types.KindString, nil
	case "coalesce", "nvl", "least", "greatest":
		return unionOf(x.Args, env)
	case "nullif":
		if len(x.Args) == 0 {
			return types.KindNull, nil
		}
		return StaticKind(x.Args[0], env)
	case "abs", "mod":
		if len(x.Args) == 0 {
			return types.KindNull, nil
		}
		k, err := StaticKind(x.Args[0], env)
		if err != nil {
			return types.KindNull, err
		}
		if x.Name == "abs" {
			return arithKind('+', k, types.KindInt, false), nil
		}
		r := types.KindNull
		if len(x.Args) > 1 {
			if r, err = StaticKind(x.Args[1], env); err != nil {
				return types.KindNull, err
			}
		}
		return arithKind('%', k, r, false), nil
	}
	return types.KindNull, nil // an unknown function fails: no value
}

// aggKind is an aggregate's result kind over arguments of kind arg.
func aggKind(name string, arg types.Kind) types.Kind {
	switch name {
	case "count":
		return types.KindInt
	case "avg", "slope":
		return types.KindFloat
	case "sum":
		return arithKind('+', arg, types.KindInt, false)
	}
	return arg // min, max
}
