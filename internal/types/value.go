// Package types implements the scalar value system shared by every layer of
// the engine: NULL-aware values, three-valued comparison, canonical key
// encoding for hash structures, and arithmetic with the spreadsheet clause's
// IGNORE NAV semantics.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL scalar. The zero Value is NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a floating-point Value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string Value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsNumeric reports whether v is an INT or FLOAT.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// Bool returns the boolean content of v. It is only meaningful for KindBool.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Float returns the numeric content of v widened to float64.
// NULL and non-numeric values yield 0.
func (v Value) Float() float64 {
	switch v.K {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// Int returns the numeric content of v narrowed to int64 (floats truncate).
func (v Value) Int() int64 {
	switch v.K {
	case KindInt:
		return v.I
	case KindFloat:
		return int64(v.F)
	}
	return 0
}

// String renders v the way the result printer and EXPLAIN show it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		// Integral floats print without a trailing ".0" noise but keep a
		// marker of floatness out of results; tests rely on %g.
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// SQLLiteral renders v as a SQL literal (strings quoted, embedded quotes
// doubled). Integral floats keep a ".0" so re-parsing preserves the kind
// (and the sign of -0.0).
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

// IntKeyable reports whether the FLOAT f is an integer int64 holds, so that
// it is the same key as that INT. It is the one rule every layer applies:
// NormNum, the columnar key encoding, the vectorized predicates and the
// catalog's FLOAT-to-INT coercion. ±Inf and NaN fail the range test; -2^63
// is in range and 2^63 is not.
func IntKeyable(f float64) bool {
	return f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63
}

// NormNum maps an integral FLOAT onto the equivalent INT so that 2002 and
// 2002.0 address the same spreadsheet cell and hash to the same key.
func NormNum(v Value) Value {
	if v.K == KindFloat && IntKeyable(v.F) {
		return Value{K: KindInt, I: int64(v.F)}
	}
	return v
}

// Equal reports whether a and b are the same value under dimension-key
// semantics: numeric values compare across INT/FLOAT, NULL equals NULL.
// (SQL's three-valued = is implemented by Compare in the evaluator.)
func Equal(a, b Value) bool {
	a, b = NormNum(a), NormNum(b)
	if a.K != b.K {
		// A FLOAT that NormNum leaves a FLOAT is not an integer int64
		// holds, so it equals no INT.
		return false
	}
	switch a.K {
	case KindNull:
		return true
	case KindInt, KindBool:
		return a.I == b.I
	case KindFloat:
		return a.F == b.F
	case KindString:
		return a.S == b.S
	}
	return false
}

// Compare orders a before b (-1), equal (0) or after (1). NULLs sort last and
// equal to each other; numerics compare across INT/FLOAT; mixed non-numeric
// kinds order by Kind. Use CompareSQL in the evaluator for three-valued logic.
func Compare(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	if a.IsNumeric() && b.IsNumeric() {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case a.I == b.I:
			return 0
		case a.I < b.I:
			return -1
		}
		return 1
	}
	return 0
}

// Order is the engine's sort order, the one ORDER BY, window ordering and
// rule ORDER BY sort by. It keeps Compare's placement of NULLs (last,
// equal to each other) and of mixed non-numeric kinds (by Kind), but it is
// a total preorder, which a sort needs and Compare is not: numerics compare
// exactly (INT against INT as integers, INT against FLOAT without rounding
// the INT), and NaN sorts after every number and ties only with NaN. -0.0
// ties 0.0 and 0. Two values tie under Order exactly when they are Equal,
// NaNs aside. Predicates, MIN/MAX and bounds keep Compare.
func Order(a, b Value) int {
	an, bn := a.IsNull(), b.IsNull()
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Compare(a, b)
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return cmp.Compare(a.I, b.I)
	case a.K == KindFloat && b.K == KindFloat:
		return OrderFloat(a.F, b.F)
	case a.K == KindFloat:
		return orderFloatInt(a.F, b.I)
	}
	return -orderFloatInt(b.F, a.I)
}

// OrderFloat is Order over two FLOATs: NaN after every number, tied only
// with NaN; -0.0 ties 0.0.
func OrderFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	xn, yn := x != x, y != y
	switch {
	case xn && yn:
		return 0
	case xn:
		return 1
	}
	return -1
}

// orderFloatInt compares f with i exactly.
func orderFloatInt(f float64, i int64) int {
	switch {
	case f != f || f >= 0x1p63:
		return 1
	case f < -0x1p63:
		return -1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): exact as an int64
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return OrderFloat(f, t)
}

// AppendKey appends a canonical byte encoding of v to buf. Two values encode
// identically iff Equal(a, b), with one exception: a NaN encodes by its
// bits, so it matches a NaN of the same bits although Equal holds for no
// NaN. Grouping (GROUP BY, DISTINCT, cell keys) keeps that; the hashed
// equality paths (the hash join, IN) treat a NaN as matching nothing. The
// encoding is self-delimiting so tuples of values can be concatenated into
// composite keys.
func AppendKey(buf []byte, v Value) []byte {
	v = NormNum(v)
	switch v.K {
	case KindNull:
		return append(buf, 0x00)
	case KindInt:
		buf = append(buf, 0x01)
		u := uint64(v.I)
		return append(buf,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case KindFloat:
		buf = append(buf, 0x02)
		u := math.Float64bits(v.F)
		return append(buf,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case KindString:
		buf = append(buf, 0x03)
		n := len(v.S)
		buf = append(buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(buf, v.S...)
	case KindBool:
		if v.I != 0 {
			return append(buf, 0x05)
		}
		return append(buf, 0x04)
	}
	return buf
}

// Key returns the canonical encoding of a tuple of values as a string, for
// use as a Go map key in hash access structures.
func Key(vs ...Value) string {
	buf := make([]byte, 0, 16*len(vs))
	for _, v := range vs {
		buf = AppendKey(buf, v)
	}
	return string(buf)
}
