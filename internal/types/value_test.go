package types

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v := NewInt(42); v.K != KindInt || v.I != 42 || v.Float() != 42 || v.Int() != 42 {
		t.Fatalf("NewInt broken: %#v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.F != 2.5 || v.Int() != 2 {
		t.Fatalf("NewFloat broken: %#v", v)
	}
	if v := NewString("dvd"); v.K != KindString || v.S != "dvd" {
		t.Fatalf("NewString broken: %#v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Fatal("NewBool(true) not true")
	}
	if v := NewBool(false); v.Bool() {
		t.Fatal("NewBool(false) not false")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("tv"), "tv"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := NewString("x").SQLLiteral(); got != "'x'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(NewInt(2002), NewFloat(2002)) {
		t.Error("2002 != 2002.0")
	}
	if Equal(NewInt(2002), NewFloat(2002.5)) {
		t.Error("2002 == 2002.5")
	}
	if !Equal(Null, Null) {
		t.Error("NULL key != NULL key")
	}
	if Equal(NewString("1"), NewInt(1)) {
		t.Error("'1' == 1")
	}
	if !Equal(NewBool(true), NewBool(true)) || Equal(NewBool(true), NewBool(false)) {
		t.Error("bool equality broken")
	}
}

func TestCompareOrdering(t *testing.T) {
	// NULLs last.
	if Compare(Null, NewInt(1)) != 1 || Compare(NewInt(1), Null) != -1 || Compare(Null, Null) != 0 {
		t.Error("NULL ordering broken")
	}
	if Compare(NewInt(1), NewFloat(1.5)) != -1 {
		t.Error("cross numeric compare broken")
	}
	if Compare(NewString("a"), NewString("b")) != -1 || Compare(NewString("b"), NewString("a")) != 1 {
		t.Error("string compare broken")
	}
	if Compare(NewBool(false), NewBool(true)) != -1 {
		t.Error("bool compare broken")
	}
}

func TestKeyEqualConsistency(t *testing.T) {
	// Property: Key(a) == Key(b) iff Equal(a, b).
	f := func(ai int64, af float64, as string, pick uint8) bool {
		mk := func(p uint8) Value {
			switch p % 5 {
			case 0:
				return Null
			case 1:
				return NewInt(ai)
			case 2:
				return NewFloat(af)
			case 3:
				return NewString(as)
			default:
				return NewBool(ai%2 == 0)
			}
		}
		a, b := mk(pick), mk(pick/5)
		if math.IsNaN(af) {
			return true
		}
		return (Key(a) == Key(b)) == Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyIntFloatNormalization(t *testing.T) {
	if Key(NewInt(7)) != Key(NewFloat(7)) {
		t.Error("integral float must share key with int")
	}
	if Key(NewFloat(7.25)) == Key(NewInt(7)) {
		t.Error("7.25 must not collide with 7")
	}
	if Key(NewInt(1), NewInt(2)) == Key(NewInt(12)) {
		t.Error("composite keys must be self-delimiting")
	}
	// Huge floats outside int64 range must not panic or collide oddly.
	big := NewFloat(1e300)
	if Key(big) == Key(NewInt(math.MaxInt64)) {
		t.Error("1e300 collided with MaxInt64")
	}
}

func TestCompareIsTotalOrder(t *testing.T) {
	vals := []Value{
		Null, NewInt(-3), NewInt(0), NewInt(5), NewFloat(-2.5), NewFloat(5),
		NewString(""), NewString("a"), NewString("z"), NewBool(false), NewBool(true),
	}
	sorted := append([]Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return Compare(sorted[i], sorted[j]) < 0 })
	// antisymmetry + transitivity sanity: re-sorting is stable w.r.t. Compare.
	for i := 0; i+1 < len(sorted); i++ {
		if Compare(sorted[i], sorted[i+1]) > 0 {
			t.Fatalf("sort violated order at %d: %v > %v", i, sorted[i], sorted[i+1])
		}
	}
	if !sorted[len(sorted)-1].IsNull() {
		t.Error("NULL must sort last")
	}
}

func TestArith(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Arith('+', NewInt(2), NewInt(3), KeepNav)); got.I != 5 || got.K != KindInt {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Arith('*', NewInt(2), NewFloat(1.5), KeepNav)); got.F != 3 {
		t.Errorf("2*1.5 = %v", got)
	}
	if got := mustV(Arith('/', NewInt(1), NewInt(3), KeepNav)); got.K != KindFloat || got.F <= 0.33 || got.F >= 0.34 {
		t.Errorf("1/3 = %v", got)
	}
	if got := mustV(Arith('-', NewInt(10), NewInt(4), KeepNav)); got.I != 6 {
		t.Errorf("10-4 = %v", got)
	}
	if got := mustV(Arith('%', NewInt(10), NewInt(4), KeepNav)); got.I != 2 {
		t.Errorf("10%%4 = %v", got)
	}
	if _, err := Arith('/', NewInt(1), NewInt(0), KeepNav); err == nil {
		t.Error("division by zero must error")
	}
	if _, err := Arith('+', NewString("x"), NewInt(1), KeepNav); err == nil {
		t.Error("string arithmetic must error")
	}
}

func TestArithNavModes(t *testing.T) {
	// KeepNav: NULL propagates.
	if v, err := Arith('+', Null, NewInt(3), KeepNav); err != nil || !v.IsNull() {
		t.Errorf("NULL+3 keepnav = %v, %v", v, err)
	}
	// IgnoreNav: NULL becomes 0.
	if v, err := Arith('+', Null, NewInt(3), IgnoreNav); err != nil || v.Int() != 3 {
		t.Errorf("NULL+3 ignorenav = %v, %v", v, err)
	}
	if v, err := Arith('*', Null, NewInt(3), IgnoreNav); err != nil || v.Int() != 0 {
		t.Errorf("NULL*3 ignorenav = %v, %v", v, err)
	}
	if v, err := Neg(Null, IgnoreNav); err != nil || v.Int() != 0 {
		t.Errorf("-NULL ignorenav = %v, %v", v, err)
	}
	if v, err := Neg(Null, KeepNav); err != nil || !v.IsNull() {
		t.Errorf("-NULL keepnav = %v, %v", v, err)
	}
	if v, err := Neg(NewFloat(2.5), KeepNav); err != nil || v.F != -2.5 {
		t.Errorf("-2.5 = %v, %v", v, err)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchemaNames("r", "p", "t", "s")
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Lookup("t") != 2 || s.Lookup("missing") != -1 {
		t.Error("Lookup broken")
	}
	if got := s.Names(); len(got) != 4 || got[3] != "s" {
		t.Errorf("Names = %v", got)
	}
	r := Row{NewInt(1), NewInt(2)}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].I != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestSchemaDuplicateNamesKeepFirst(t *testing.T) {
	s := NewSchemaNames("a", "a", "b")
	if s.Lookup("a") != 0 {
		t.Error("duplicate column lookup must resolve to first occurrence")
	}
}

// TestOrder pins the sort order: Compare's NULL and kind placement, NaN
// after every number and tied only with NaN, exact numerics across kinds.
func TestOrder(t *testing.T) {
	nan, nan2 := NewFloat(math.NaN()), NewFloat(math.Float64frombits(0x7ff8000000000002))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{nan, NewFloat(1), 1}, {NewFloat(math.Inf(1)), nan, -1}, {nan, nan2, 0},
		{nan, NewInt(math.MaxInt64), 1}, {Null, nan, 1},
		{NewFloat(math.Copysign(0, -1)), NewInt(0), 0}, {NewFloat(math.Copysign(0, -1)), NewFloat(0), 0},
		{NewInt(1<<53 + 1), NewInt(1 << 53), 1}, {NewInt(1<<53 + 1), NewFloat(1 << 53), 1},
		{NewFloat(0x1p63), NewInt(math.MaxInt64), 1}, {NewFloat(-0x1p63), NewInt(math.MinInt64), 0},
		{NewFloat(2.5), NewInt(2), 1}, {NewFloat(-2.5), NewInt(-2), -1}, {NewFloat(-1e300), NewInt(math.MinInt64), -1},
		{NewInt(3), NewString("a"), -1}, {NewString("a"), NewBool(false), -1}, {Null, Null, 0},
	} {
		if got := Order(c.a, c.b); got != c.want {
			t.Errorf("Order(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Order(c.b, c.a); got != -c.want {
			t.Errorf("Order(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
	// A total preorder whose ties are exactly Equal's and AppendKey's, NaNs
	// aside.
	vals := []Value{Null, nan, nan2, NewInt(-3), NewInt(0), NewInt(5), NewInt(1<<53 + 1), NewFloat(1 << 53),
		NewFloat(-2.5), NewFloat(5), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(-1)), NewFloat(math.Inf(1)),
		NewFloat(0x1p63), NewInt(math.MaxInt64), NewFloat(-0x1p63), NewInt(math.MinInt64),
		NewString(""), NewString("a"), NewBool(false), NewBool(true)}
	for _, a := range vals {
		for _, b := range vals {
			ab := Order(a, b)
			eq, key := Equal(a, b), Key(a) == Key(b)
			// NaNs aside: Order ties them all, Equal none, keys equal bits.
			if a.F == a.F && b.F == b.F && ((ab == 0) != eq || key != eq) {
				t.Errorf("%v, %v: Order tie %v, Equal %v, same key %v", a, b, ab == 0, eq, key)
			}
			for _, c := range vals {
				if ab <= 0 && Order(b, c) <= 0 && Order(a, c) > 0 {
					t.Errorf("not transitive: %v ≤ %v ≤ %v but %v > %v", a, b, c, a, c)
				}
			}
		}
	}
}

// TestKeyTwoToThe63: 2^63 is no int64, so it keys as a FLOAT; it used to
// convert to MinInt64 and collide with -2^63.
func TestKeyTwoToThe63(t *testing.T) {
	if Key(NewFloat(0x1p63)) == Key(NewFloat(-0x1p63)) || Key(NewFloat(0x1p63)) == Key(NewInt(math.MinInt64)) {
		t.Error("2^63 keys like -2^63")
	}
	if Key(NewFloat(-0x1p63)) != Key(NewInt(math.MinInt64)) {
		t.Error("-2^63 must key as the INT it equals")
	}
}
