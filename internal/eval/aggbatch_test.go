package eval

import (
	"math"
	"math/rand"
	"testing"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/types"
)

// TestAggBatchMergeMatchesMerger: per-morsel batch partials merged by Merge
// in morsel order give, for every group, the bits of the row accumulators'
// partials merged by aggs.Merger (the first adopted, the later ones folded
// in): float sums whose bits depend on the merge points, signed zeros, NaN,
// and MIN/MAX ties across morsels (-0.0 beside 0.0, INTs equal as float64).
func TestAggBatchMergeMatchesMerger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	// Per aggregate, values whose extremes tie: -0.0 and 0.0, and INTs
	// that are one float64.
	floatsOf := map[string][]float64{"min": {negZero, 0, math.NaN(), 1}, "max": {negZero, 0, math.NaN(), -1}}
	intsOf := map[string][]int64{"min": {1 << 53, 1<<53 + 1, 1 << 60}, "max": {1 << 53, 1<<53 + 1, -5}}
	const groups, morsels, rows = 5, 6, 40
	same := func(a, b types.Value) bool {
		return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
	}
	for _, kind := range []types.Kind{types.KindFloat, types.KindInt, types.KindString} {
		for _, name := range []string{"sum", "count", "avg", "min", "max", "slope"} {
			if kind == types.KindString && name != "min" && name != "max" {
				continue
			}
			floats, ints := floatsOf[name], intsOf[name]
			if floats == nil {
				floats, ints = []float64{0.1, 1e16, -1e16, 0.2, negZero, 0, math.NaN(), 3}, []int64{1 << 53, 1<<53 + 1, -4, 9}
			}
			nargs := aggs.NumArgs(name)
			kinds := []types.Kind{kind, kind}[:nargs]
			global, _ := NewAggBatch(name, false, kinds)
			global.Grow(groups)
			var want [groups]aggs.Agg
			into := []int32{0, 1, 2, 3, 4}
			for mi := 0; mi < morsels; mi++ {
				gids := make([]int32, rows)
				vec := &ExprVec{Kind: kind, Nulls: make([]bool, rows), n: rows}
				vals := make([]types.Value, rows)
				for k := range gids {
					gids[k] = int32(rng.Intn(groups))
					switch kind {
					case types.KindFloat:
						vec.Floats = append(vec.Floats, floats[rng.Intn(len(floats))])
						vals[k] = types.NewFloat(vec.Floats[k])
					case types.KindInt:
						vec.Ints = append(vec.Ints, ints[rng.Intn(len(ints))])
						vals[k] = types.NewInt(vec.Ints[k])
					default:
						vec.Strs = append(vec.Strs, string(rune('a'+rng.Intn(3))))
						vals[k] = types.NewString(vec.Strs[k])
					}
					if rng.Intn(5) == 0 {
						vec.Nulls[k], vals[k] = true, types.Null
					}
				}
				part, _ := NewAggBatch(name, false, kinds)
				part.Grow(groups)
				part.Feed(gids, []*ExprVec{vec, vec}[:nargs])
				global.Merge(part, into)
				for g := range want {
					a, _ := aggs.New(name, false)
					for k, gid := range gids {
						if int(gid) == g {
							a.Add(vals[k], vals[k])
						}
					}
					if want[g] == nil {
						want[g] = a
					} else {
						want[g].(aggs.Merger).Merge(a)
					}
				}
			}
			for g := range want {
				if got, w := global.Result(g), want[g].Result(); !same(got, w) {
					t.Errorf("%s over %s, group %d: batch %v, row %v", name, kind, g, got, w)
				}
			}
		}
	}
}
