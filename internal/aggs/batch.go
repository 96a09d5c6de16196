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
// conversion). Result(g) is the row accumulator's Result over that state,
// and Merge(g, src, sg) its Merger: per-morsel partials folded in morsel
// order leave the bits one serial scan leaves. Unbox materializes a group's
// state as the ordinary Agg.
//
// Folding into a fresh group copies the source group bit for bit: a fresh
// sum is +0.0, a sum that starts at +0.0 never becomes -0.0, and +0.0 + x
// is x for every other x (a NaN keeps its payload); a fresh MIN/MAX takes
// the source's extreme. So the first partial of a group is copied and the
// later ones are folded in, as Merger does.
//
// Kind dispatch is the caller's job: the argument vector's kind picks the
// Add* method, and kinds an aggregate ignores (strings under SUM/AVG, any
// non-numeric under SLOPE) are simply not fed — the row path skips those
// values silently, so skipping the whole vector is identical.

// grow extends s with zero values to length n.
func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

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
	b.n, b.isum, b.fsum, b.sawFloat = grow(b.n, n), grow(b.isum, n), grow(b.fsum, n), grow(b.sawFloat, n)
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

// Merge folds src's group sg into group g.
func (b *SumBatch) Merge(g int, src *SumBatch, sg int) {
	b.n[g] += src.n[sg]
	b.isum[g] += src.isum[sg]
	b.fsum[g] += src.fsum[sg]
	b.sawFloat[g] = b.sawFloat[g] || src.sawFloat[sg]
}

func (b *SumBatch) Result(g int) types.Value {
	return sumResult(b.n[g], b.isum[g], b.fsum[g], b.sawFloat[g])
}

// CountBatch is countAgg over many groups.
type CountBatch struct {
	star bool
	n    []int64
}

func NewCountBatch(star bool) *CountBatch { return &CountBatch{star: star} }

func (b *CountBatch) Grow(n int) { b.n = grow(b.n, n) }

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

func (b *CountBatch) Merge(g int, src *CountBatch, sg int) { b.n[g] += src.n[sg] }
func (b *CountBatch) Result(g int) types.Value             { return types.NewInt(b.n[g]) }

// AvgBatch is avgAgg over many groups.
type AvgBatch struct {
	n   []int64
	sum []float64
}

func NewAvgBatch() *AvgBatch { return &AvgBatch{} }

func (b *AvgBatch) Grow(n int) { b.n, b.sum = grow(b.n, n), grow(b.sum, n) }

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

func (b *AvgBatch) Merge(g int, src *AvgBatch, sg int) {
	b.n[g] += src.n[sg]
	b.sum[g] += src.sum[sg]
}

func (b *AvgBatch) Result(g int) types.Value { return avgResult(b.n[g], b.sum[g]) }

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
	b.seen = grow(b.seen, n)
	switch b.kind {
	case types.KindInt, types.KindBool:
		b.ints = grow(b.ints, n)
	case types.KindFloat:
		b.floats = grow(b.floats, n)
	case types.KindString:
		b.strs = grow(b.strs, n)
	}
}

// intWins reports whether integer or boolean v displaces the extreme cur.
func (b *MinMaxBatch) intWins(v, cur int64) bool {
	if b.kind == types.KindBool {
		// types.Compare orders same-kind booleans by their 0/1 content.
		return (b.min && v < cur) || (!b.min && v > cur)
	}
	// types.Compare widens numerics to float64; replicate exactly.
	vf, cf := float64(v), float64(cur)
	return (b.min && vf < cf) || (!b.min && vf > cf)
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
		if b.intWins(v, b.ints[g]) {
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
	return &minmaxAgg{min: b.min, seen: b.seen[g], value: b.Result(g)}
}

// Merge folds src's extreme for group sg into group g; as in Add, a tie
// keeps g's earlier value.
func (b *MinMaxBatch) Merge(g int, src *MinMaxBatch, sg int) {
	if !src.seen[sg] {
		return
	}
	first := !b.seen[g]
	b.seen[g] = true
	switch b.kind {
	case types.KindInt, types.KindBool:
		if v := src.ints[sg]; first || b.intWins(v, b.ints[g]) {
			b.ints[g] = v
		}
	case types.KindFloat:
		if v := src.floats[sg]; first || (b.min && v < b.floats[g]) || (!b.min && v > b.floats[g]) {
			b.floats[g] = v
		}
	case types.KindString:
		if v := src.strs[sg]; first || (b.min && v < b.strs[g]) || (!b.min && v > b.strs[g]) {
			b.strs[g] = v
		}
	}
}

// Result is group g's extreme, NULL when it saw no value.
func (b *MinMaxBatch) Result(g int) types.Value {
	if !b.seen[g] {
		return types.Null
	}
	switch b.kind {
	case types.KindInt, types.KindBool:
		return types.Value{K: b.kind, I: b.ints[g]}
	case types.KindFloat:
		return types.Value{K: types.KindFloat, F: b.floats[g]}
	case types.KindString:
		return types.Value{K: types.KindString, S: b.strs[g]}
	}
	return types.Null
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
	b.n, b.sx, b.sy, b.sxy, b.sxx = grow(b.n, n), grow(b.sx, n), grow(b.sy, n), grow(b.sxy, n), grow(b.sxx, n)
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

func (b *SlopeBatch) Merge(g int, src *SlopeBatch, sg int) {
	b.n[g] += src.n[sg]
	b.sx[g] += src.sx[sg]
	b.sy[g] += src.sy[sg]
	b.sxy[g] += src.sxy[sg]
	b.sxx[g] += src.sxx[sg]
}

func (b *SlopeBatch) Result(g int) types.Value {
	return slopeResult(b.n[g], b.sx[g], b.sy[g], b.sxy[g], b.sxx[g])
}
