// Package aggs implements the aggregate functions usable both in GROUP BY
// queries and over spreadsheet cell ranges: SUM, COUNT, AVG, MIN, MAX and
// SLOPE (ANSI linear-regression slope, REGR_SLOPE).
//
// Aggregates expose incremental Add and, where an algebraic inverse exists,
// Remove. The paper's Auto-Acyclic algorithm exploits inverses to maintain
// already-computed aggregates when a formula updates a contributing cell,
// avoiding rescans ("aggregates ... are updated by applying the current
// value and inverse of the old value of the measure").
package aggs

import (
	"fmt"

	"sqlsheet/internal/types"
)

// IsAggregate reports whether name is a supported aggregate function.
func IsAggregate(name string) bool {
	switch name {
	case "sum", "count", "avg", "min", "max", "slope":
		return true
	}
	return false
}

// NumArgs returns the number of measure arguments the aggregate takes.
func NumArgs(name string) int {
	if name == "slope" {
		return 2
	}
	return 1
}

// Agg accumulates values incrementally.
type Agg interface {
	// Add feeds one row's argument values (two for slope: y then x).
	Add(vals ...types.Value)
	// Remove undoes a prior Add. It must only be called when Invertible.
	Remove(vals ...types.Value)
	// Invertible reports whether Remove is supported.
	Invertible() bool
	// Result returns the current aggregate value.
	Result() types.Value
	// Reset returns the aggregate to its initial state.
	Reset()
}

// Merger is implemented by aggregates whose partial states combine: all six
// built-ins, including MIN/MAX whose merge is a fold of one partial's extreme
// into the other. The parallel group-by computes per-morsel partials and
// merges them in morsel order; because each partial accumulates its rows in
// input order and Merge folds states in morsel order, the merged state is
// bit-identical to one serial scan.
// (Merge-combinable is weaker than Invertible: MIN/MAX still have no inverse,
// the restriction the paper applies to single-scan aggregate maintenance.)
type Merger interface {
	// Merge folds other — an accumulator of the same concrete type — into
	// the receiver.
	Merge(other Agg)
}

// Mergeable reports whether name's accumulator supports partial-state
// merging (and so can participate in parallel partial aggregation).
func Mergeable(name string) bool {
	a, err := New(name, false)
	if err != nil {
		return false
	}
	_, ok := a.(Merger)
	return ok
}

// New constructs an aggregate accumulator. star marks COUNT(*).
func New(name string, star bool) (Agg, error) {
	switch name {
	case "sum":
		return &sumAgg{}, nil
	case "count":
		return &countAgg{star: star}, nil
	case "avg":
		return &avgAgg{}, nil
	case "min":
		return &minmaxAgg{min: true}, nil
	case "max":
		return &minmaxAgg{}, nil
	case "slope":
		return &slopeAgg{}, nil
	}
	return nil, fmt.Errorf("unknown aggregate %q", name)
}

// sumAgg sums numeric values, ignoring NULLs; integer-only input keeps an
// integer result. No rows (or all NULLs) yields NULL.
type sumAgg struct {
	n        int64 // non-null count
	isum     int64
	fsum     float64
	sawFloat bool
}

func (a *sumAgg) Add(vals ...types.Value) {
	v := vals[0]
	if v.IsNull() || !v.IsNumeric() {
		return
	}
	a.n++
	if v.K == types.KindFloat {
		a.sawFloat = true
	}
	a.isum += v.Int()
	a.fsum += v.Float()
}

func (a *sumAgg) Remove(vals ...types.Value) {
	v := vals[0]
	if v.IsNull() || !v.IsNumeric() {
		return
	}
	a.n--
	a.isum -= v.Int()
	a.fsum -= v.Float()
}

func (a *sumAgg) Invertible() bool { return true }

func (a *sumAgg) Merge(other Agg) {
	b := other.(*sumAgg)
	a.n += b.n
	a.isum += b.isum
	a.fsum += b.fsum
	a.sawFloat = a.sawFloat || b.sawFloat
}

func (a *sumAgg) Result() types.Value {
	if a.n == 0 {
		return types.Null
	}
	if a.sawFloat {
		return types.NewFloat(a.fsum)
	}
	return types.NewInt(a.isum)
}

func (a *sumAgg) Reset() { *a = sumAgg{} }

// countAgg counts rows (*) or non-null arguments.
type countAgg struct {
	star bool
	n    int64
}

func (a *countAgg) Add(vals ...types.Value) {
	if a.star || (len(vals) > 0 && !vals[0].IsNull()) {
		a.n++
	}
}

func (a *countAgg) Remove(vals ...types.Value) {
	if a.star || (len(vals) > 0 && !vals[0].IsNull()) {
		a.n--
	}
}

func (a *countAgg) Invertible() bool    { return true }
func (a *countAgg) Merge(other Agg)     { a.n += other.(*countAgg).n }
func (a *countAgg) Result() types.Value { return types.NewInt(a.n) }
func (a *countAgg) Reset()              { a.n = 0 }

// avgAgg is SUM/COUNT over non-null numeric values.
type avgAgg struct {
	n   int64
	sum float64
}

func (a *avgAgg) Add(vals ...types.Value) {
	v := vals[0]
	if v.IsNull() || !v.IsNumeric() {
		return
	}
	a.n++
	a.sum += v.Float()
}

func (a *avgAgg) Remove(vals ...types.Value) {
	v := vals[0]
	if v.IsNull() || !v.IsNumeric() {
		return
	}
	a.n--
	a.sum -= v.Float()
}

func (a *avgAgg) Invertible() bool { return true }

func (a *avgAgg) Merge(other Agg) {
	b := other.(*avgAgg)
	a.n += b.n
	a.sum += b.sum
}

func (a *avgAgg) Result() types.Value {
	if a.n == 0 {
		return types.Null
	}
	return types.NewFloat(a.sum / float64(a.n))
}

func (a *avgAgg) Reset() { *a = avgAgg{} }

// minmaxAgg keeps the extreme value. It has no inverse (removing the current
// extreme would require the full multiset), which is exactly why the paper
// restricts the single-scan aggregate-maintenance optimization to aggregates
// "for which an inverse is defined (for example, SUM, COUNT etc.)".
type minmaxAgg struct {
	min   bool
	seen  bool
	value types.Value
}

func (a *minmaxAgg) Add(vals ...types.Value) {
	v := vals[0]
	if v.IsNull() {
		return
	}
	if !a.seen {
		a.seen = true
		a.value = v
		return
	}
	c := types.Compare(v, a.value)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.value = v
	}
}

func (a *minmaxAgg) Remove(vals ...types.Value) {
	panic("min/max aggregate is not invertible")
}

func (a *minmaxAgg) Invertible() bool { return false }

// Merge folds another partial's extreme in. The strict comparison mirrors
// Add: on ties (e.g. int 1 vs float 1.0, which Compare orders equal) the
// receiver's earlier value wins, exactly as a serial scan would keep the
// first-seen extreme — so morsel-ordered merges stay bit-identical.
func (a *minmaxAgg) Merge(other Agg) {
	b := other.(*minmaxAgg)
	if !b.seen {
		return
	}
	if !a.seen {
		a.seen, a.value = true, b.value
		return
	}
	c := types.Compare(b.value, a.value)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.value = b.value
	}
}

func (a *minmaxAgg) Result() types.Value {
	if !a.seen {
		return types.Null
	}
	return a.value
}

func (a *minmaxAgg) Reset() { *a = minmaxAgg{min: a.min} }

// slopeAgg computes the ANSI REGR_SLOPE of (y, x) pairs:
//
//	slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)
//
// It is algebraically invertible, so it participates in the single-scan
// optimization alongside SUM and COUNT.
type slopeAgg struct {
	n                int64
	sx, sy, sxy, sxx float64
}

func (a *slopeAgg) Add(vals ...types.Value) {
	y, x := vals[0], vals[1]
	if y.IsNull() || x.IsNull() || !y.IsNumeric() || !x.IsNumeric() {
		return
	}
	xf, yf := x.Float(), y.Float()
	a.n++
	a.sx += xf
	a.sy += yf
	a.sxy += xf * yf
	a.sxx += xf * xf
}

func (a *slopeAgg) Remove(vals ...types.Value) {
	y, x := vals[0], vals[1]
	if y.IsNull() || x.IsNull() || !y.IsNumeric() || !x.IsNumeric() {
		return
	}
	xf, yf := x.Float(), y.Float()
	a.n--
	a.sx -= xf
	a.sy -= yf
	a.sxy -= xf * yf
	a.sxx -= xf * xf
}

func (a *slopeAgg) Invertible() bool { return true }

func (a *slopeAgg) Merge(other Agg) {
	b := other.(*slopeAgg)
	a.n += b.n
	a.sx += b.sx
	a.sy += b.sy
	a.sxy += b.sxy
	a.sxx += b.sxx
}

func (a *slopeAgg) Result() types.Value {
	den := float64(a.n)*a.sxx - a.sx*a.sx
	if a.n < 2 || den == 0 {
		return types.Null
	}
	return types.NewFloat((float64(a.n)*a.sxy - a.sx*a.sy) / den)
}

func (a *slopeAgg) Reset() { *a = slopeAgg{} }
