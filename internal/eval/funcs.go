package eval

import (
	"fmt"
	"math"

	"sqlsheet/internal/types"
)

// CallScalar evaluates a built-in scalar function over already-computed
// arguments.
func CallScalar(name string, args []types.Value) (types.Value, error) {
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s() expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	num1 := func(f func(float64) float64) (types.Value, error) {
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		if !args[0].IsNumeric() {
			return types.Null, fmt.Errorf("%s() expects a numeric argument", name)
		}
		r := f(args[0].Float())
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return types.Null, fmt.Errorf("%s() result out of range", name)
		}
		return types.NewFloat(r), nil
	}

	switch name {
	case "abs":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		if args[0].K == types.KindInt {
			if args[0].I < 0 {
				return types.NewInt(-args[0].I), nil
			}
			return args[0], nil
		}
		return num1(math.Abs)
	case "sqrt":
		return num1(math.Sqrt)
	case "exp":
		return num1(math.Exp)
	case "ln":
		return num1(math.Log)
	case "floor":
		return num1(math.Floor)
	case "ceil", "ceiling":
		return num1(math.Ceil)
	case "sign":
		if err := arity(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		f := args[0].Float()
		switch {
		case f > 0:
			return types.NewInt(1), nil
		case f < 0:
			return types.NewInt(-1), nil
		}
		return types.NewInt(0), nil
	case "round", "trunc":
		if len(args) != 1 && len(args) != 2 {
			return types.Null, fmt.Errorf("%s() expects 1 or 2 arguments", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		digits := int64(0)
		if len(args) == 2 {
			if args[1].IsNull() {
				return types.Null, nil
			}
			digits = args[1].Int()
		}
		scale := math.Pow(10, float64(digits))
		f := args[0].Float() * scale
		if name == "round" {
			f = math.Round(f)
		} else {
			f = math.Trunc(f)
		}
		return types.NewFloat(f / scale), nil
	case "power", "pow":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		return types.NewFloat(math.Pow(args[0].Float(), args[1].Float())), nil
	case "mod":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		return types.Arith('%', args[0], args[1], types.KeepNav)
	case "upper":
		return str1(name, args, func(s string) types.Value { return types.NewString(toUpper(s)) })
	case "lower":
		return str1(name, args, func(s string) types.Value { return types.NewString(toLower(s)) })
	case "length", "len":
		return str1(name, args, func(s string) types.Value { return types.NewInt(int64(len(s))) })
	case "substr", "substring":
		if len(args) != 2 && len(args) != 3 {
			return types.Null, fmt.Errorf("substr() expects 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		s := args[0].String()
		start := int(args[1].Int()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return types.NewString(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].IsNull() {
				return types.Null, nil
			}
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return types.NewString(s[start:end]), nil
	case "concat":
		var out string
		for _, a := range args {
			if a.IsNull() {
				continue
			}
			out += a.String()
		}
		return types.NewString(out), nil
	case "coalesce", "nvl":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null, nil
	case "nullif":
		if err := arity(2); err != nil {
			return types.Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && types.Equal(args[0], args[1]) {
			return types.Null, nil
		}
		return args[0], nil
	case "least", "greatest":
		if len(args) == 0 {
			return types.Null, fmt.Errorf("%s() expects at least 1 argument", name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return types.Null, nil
			}
			c := types.Compare(a, best)
			if (name == "least" && c < 0) || (name == "greatest" && c > 0) {
				best = a
			}
		}
		return best, nil
	}
	return types.Null, fmt.Errorf("unknown function %s()", name)
}

func str1(name string, args []types.Value, f func(string) types.Value) (types.Value, error) {
	if len(args) != 1 {
		return types.Null, fmt.Errorf("%s() expects 1 argument", name)
	}
	if args[0].IsNull() {
		return types.Null, nil
	}
	return f(args[0].String()), nil
}

// ASCII-only case mappers keep us free of unicode tables; SQL identifiers
// and the paper's workloads are ASCII.
func toUpper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 32
		}
	}
	return string(b)
}

func toLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
