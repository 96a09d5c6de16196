package aggs

import (
	"sqlsheet/internal/types"
)

// Batch accumulators: structure-of-arrays aggregate state addressed by dense
// group id, fed whole argument vectors per call instead of one boxed row per
// Add. The executor's vectorized group-by assigns every row of a morsel a
// group id, then feeds each aggregate's argument vector in one bulk call —
// replacing per-row interface dispatch with a typed loop.
//
// Equivalence contract: feeding rows in ascending order through a bulk Add*
// leaves group g's state bit-identical to calling the row accumulator's Add
// with the same boxed values in the same order (same float additions in the
// same order, same int64 wraparound, same truncating int64(float) machine
// conversion). Unbox materializes that state as the ordinary Agg so result
// finalization and partial-state merging (Merger) run unchanged.
//
// Kind dispatch is the caller's job: the argument vector's kind picks the
// Add* method, and kinds an aggregate ignores (strings under SUM/AVG, any
// non-numeric under SLOPE) are simply not fed — the row path skips those
// values silently, so skipping the whole vector is identical.

// SumBatch is sumAgg over many groups.
type SumBatch struct {
	n        []int64
	isum     []int64
	fsum     []float64
	sawFloat []bool
}

func NewSumBatch() *SumBatch { return &SumBatch{} }

// Grow ensures state exists for group ids < n.
func (b *SumBatch) Grow(n int) {
	for len(b.n) < n {
		b.n = append(b.n, 0)
		b.isum = append(b.isum, 0)
		b.fsum = append(b.fsum, 0)
		b.sawFloat = append(b.sawFloat, false)
	}
}

// AddInts feeds an integer argument vector: slot k belongs to group gids[k].
func (b *SumBatch) AddInts(gids []int32, vals []int64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		v := vals[k]
		b.n[g]++
		b.isum[g] += v
		b.fsum[g] += float64(v)
	}
}

// AddFloats feeds a float argument vector. isum accumulates the same
// truncating int64(float64) conversion Value.Int() performs on the row path.
func (b *SumBatch) AddFloats(gids []int32, vals []float64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		v := vals[k]
		b.n[g]++
		b.sawFloat[g] = true
		b.isum[g] += int64(v)
		b.fsum[g] += v
	}
}

// Unbox materializes group g's state as the row accumulator.
func (b *SumBatch) Unbox(g int) Agg {
	return &sumAgg{n: b.n[g], isum: b.isum[g], fsum: b.fsum[g], sawFloat: b.sawFloat[g]}
}

// CountBatch is countAgg over many groups.
type CountBatch struct {
	star bool
	n    []int64
}

func NewCountBatch(star bool) *CountBatch { return &CountBatch{star: star} }

func (b *CountBatch) Grow(n int) {
	for len(b.n) < n {
		b.n = append(b.n, 0)
	}
}

// AddRows counts every row (COUNT(*), or a no-NULL argument vector).
func (b *CountBatch) AddRows(gids []int32) {
	for _, g := range gids {
		b.n[g]++
	}
}

// AddNonNull counts the non-NULL slots of an argument vector.
func (b *CountBatch) AddNonNull(gids []int32, nulls []bool) {
	if nulls == nil {
		b.AddRows(gids)
		return
	}
	for k, g := range gids {
		if !nulls[k] {
			b.n[g]++
		}
	}
}

func (b *CountBatch) Unbox(g int) Agg { return &countAgg{star: b.star, n: b.n[g]} }

// AvgBatch is avgAgg over many groups.
type AvgBatch struct {
	n   []int64
	sum []float64
}

func NewAvgBatch() *AvgBatch { return &AvgBatch{} }

func (b *AvgBatch) Grow(n int) {
	for len(b.n) < n {
		b.n = append(b.n, 0)
		b.sum = append(b.sum, 0)
	}
}

func (b *AvgBatch) AddInts(gids []int32, vals []int64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		b.n[g]++
		b.sum[g] += float64(vals[k])
	}
}

func (b *AvgBatch) AddFloats(gids []int32, vals []float64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		b.n[g]++
		b.sum[g] += vals[k]
	}
}

func (b *AvgBatch) Unbox(g int) Agg { return &avgAgg{n: b.n[g], sum: b.sum[g]} }

// MinMaxBatch is minmaxAgg over many groups of one argument-vector kind.
// Comparison replicates types.Compare for same-kind operands: numeric kinds
// compare widened to float64 (so two int64s distinct only past 2^53 keep the
// first-seen value, and a NaN never displaces the current extreme), strings
// compare lexically, booleans by their 0/1 content. Ties keep the current
// value — Add only replaces on a strict win.
type MinMaxBatch struct {
	min  bool
	kind types.Kind

	seen   []bool
	ints   []int64
	floats []float64
	strs   []string
}

func NewMinMaxBatch(min bool, kind types.Kind) *MinMaxBatch {
	return &MinMaxBatch{min: min, kind: kind}
}

func (b *MinMaxBatch) Grow(n int) {
	for len(b.seen) < n {
		b.seen = append(b.seen, false)
		switch b.kind {
		case types.KindInt, types.KindBool:
			b.ints = append(b.ints, 0)
		case types.KindFloat:
			b.floats = append(b.floats, 0)
		case types.KindString:
			b.strs = append(b.strs, "")
		}
	}
}

// AddInts feeds an integer or boolean argument vector (per the batch's kind).
func (b *MinMaxBatch) AddInts(gids []int32, vals []int64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		v := vals[k]
		if !b.seen[g] {
			b.seen[g] = true
			b.ints[g] = v
			continue
		}
		var better bool
		if b.kind == types.KindBool {
			// types.Compare orders same-kind booleans by their 0/1 content.
			better = (b.min && v < b.ints[g]) || (!b.min && v > b.ints[g])
		} else {
			// types.Compare widens numerics to float64; replicate exactly.
			vf, cf := float64(v), float64(b.ints[g])
			better = (b.min && vf < cf) || (!b.min && vf > cf)
		}
		if better {
			b.ints[g] = v
		}
	}
}

func (b *MinMaxBatch) AddFloats(gids []int32, vals []float64, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		v := vals[k]
		if !b.seen[g] {
			b.seen[g] = true
			b.floats[g] = v
			continue
		}
		// NaN compares neither below nor above, so it never replaces —
		// and never yields once stored — exactly types.Compare's 0.
		if (b.min && v < b.floats[g]) || (!b.min && v > b.floats[g]) {
			b.floats[g] = v
		}
	}
}

func (b *MinMaxBatch) AddStrs(gids []int32, vals []string, nulls []bool) {
	for k, g := range gids {
		if nulls != nil && nulls[k] {
			continue
		}
		v := vals[k]
		if !b.seen[g] {
			b.seen[g] = true
			b.strs[g] = v
			continue
		}
		if (b.min && v < b.strs[g]) || (!b.min && v > b.strs[g]) {
			b.strs[g] = v
		}
	}
}

func (b *MinMaxBatch) Unbox(g int) Agg {
	a := &minmaxAgg{min: b.min, seen: b.seen[g]}
	if b.seen[g] {
		switch b.kind {
		case types.KindInt, types.KindBool:
			a.value = types.Value{K: b.kind, I: b.ints[g]}
		case types.KindFloat:
			a.value = types.Value{K: types.KindFloat, F: b.floats[g]}
		case types.KindString:
			a.value = types.Value{K: types.KindString, S: b.strs[g]}
		}
	}
	return a
}

// SlopeBatch is slopeAgg over many groups. The caller widens both argument
// vectors to float64 first (the same widening Value.Float() performs) and
// passes each vector's null mask; a slot with either side NULL is skipped.
type SlopeBatch struct {
	n                []int64
	sx, sy, sxy, sxx []float64
}

func NewSlopeBatch() *SlopeBatch { return &SlopeBatch{} }

func (b *SlopeBatch) Grow(n int) {
	for len(b.n) < n {
		b.n = append(b.n, 0)
		b.sx = append(b.sx, 0)
		b.sy = append(b.sy, 0)
		b.sxy = append(b.sxy, 0)
		b.sxx = append(b.sxx, 0)
	}
}

// AddPairs feeds (y, x) pairs: slot k belongs to group gids[k].
func (b *SlopeBatch) AddPairs(gids []int32, ys, xs []float64, ynulls, xnulls []bool) {
	for k, g := range gids {
		if (ynulls != nil && ynulls[k]) || (xnulls != nil && xnulls[k]) {
			continue
		}
		xf, yf := xs[k], ys[k]
		b.n[g]++
		b.sx[g] += xf
		b.sy[g] += yf
		b.sxy[g] += xf * yf
		b.sxx[g] += xf * xf
	}
}

func (b *SlopeBatch) Unbox(g int) Agg {
	return &slopeAgg{n: b.n[g], sx: b.sx[g], sy: b.sy[g], sxy: b.sxy[g], sxx: b.sxx[g]}
}
