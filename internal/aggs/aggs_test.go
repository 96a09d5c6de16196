package aggs

import (
	"math"
	"testing"

	"sqlsheet/internal/types"
)

func feed(t *testing.T, name string, vals ...float64) types.Value {
	t.Helper()
	a, err := New(name, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		a.Add(types.NewFloat(v))
	}
	return a.Result()
}

func TestSum(t *testing.T) {
	a, _ := New("sum", false)
	if !a.Result().IsNull() {
		t.Error("empty sum must be NULL")
	}
	a.Add(types.NewInt(2))
	a.Add(types.NewInt(3))
	a.Add(types.Null)
	if r := a.Result(); r.K != types.KindInt || r.I != 5 {
		t.Errorf("int sum = %v", r)
	}
	a.Add(types.NewFloat(0.5))
	if r := a.Result(); r.K != types.KindFloat || r.F != 5.5 {
		t.Errorf("mixed sum = %v", r)
	}
	a.Reset()
	if !a.Result().IsNull() {
		t.Error("reset broken")
	}
}

func TestCount(t *testing.T) {
	a, _ := New("count", false)
	a.Add(types.NewInt(1))
	a.Add(types.Null)
	a.Add(types.NewString("x"))
	if r := a.Result(); r.I != 2 {
		t.Errorf("count = %v", r)
	}
	star, _ := New("count", true)
	star.Add(types.Null)
	star.Add(types.NewInt(1))
	if r := star.Result(); r.I != 2 {
		t.Errorf("count(*) = %v", r)
	}
}

func TestAvg(t *testing.T) {
	if r := feed(t, "avg", 1, 2, 3); r.F != 2 {
		t.Errorf("avg = %v", r)
	}
	a, _ := New("avg", false)
	if !a.Result().IsNull() {
		t.Error("empty avg must be NULL")
	}
}

func TestMinMax(t *testing.T) {
	if r := feed(t, "min", 3, 1, 2); r.F != 1 {
		t.Errorf("min = %v", r)
	}
	if r := feed(t, "max", 3, 1, 2); r.F != 3 {
		t.Errorf("max = %v", r)
	}
	a, _ := New("min", false)
	a.Add(types.NewString("b"))
	a.Add(types.NewString("a"))
	if r := a.Result(); r.S != "a" {
		t.Errorf("string min = %v", r)
	}
	// A tie keeps the first value added.
	m, _ := New("max", false)
	m.Add(types.NewInt(1))
	m.Add(types.NewFloat(1))
	if r := m.Result(); r.K != types.KindInt {
		t.Errorf("max tie = %v, want the first value added (INT 1)", r)
	}
}

func TestSlope(t *testing.T) {
	// y = 3x + 1 has slope exactly 3.
	a, _ := New("slope", false)
	for x := 1; x <= 10; x++ {
		a.Add(types.NewFloat(3*float64(x)+1), types.NewInt(int64(x)))
	}
	if r := a.Result(); math.Abs(r.F-3) > 1e-9 {
		t.Errorf("slope = %v", r)
	}
	// Fewer than 2 points, or zero x-variance → NULL.
	b, _ := New("slope", false)
	b.Add(types.NewFloat(1), types.NewFloat(5))
	if !b.Result().IsNull() {
		t.Error("1-point slope must be NULL")
	}
	b.Add(types.NewFloat(2), types.NewFloat(5))
	if !b.Result().IsNull() {
		t.Error("zero-variance slope must be NULL")
	}
}

func TestIsAggregateAndArity(t *testing.T) {
	for _, n := range []string{"sum", "count", "avg", "min", "max", "slope"} {
		if !IsAggregate(n) {
			t.Errorf("%s must be an aggregate", n)
		}
	}
	if IsAggregate("upper") || IsAggregate("") {
		t.Error("non-aggregates misclassified")
	}
	if NumArgs("slope") != 2 || NumArgs("sum") != 1 {
		t.Error("arity broken")
	}
	if _, err := New("median", false); err == nil {
		t.Error("unknown aggregate must error")
	}
}
