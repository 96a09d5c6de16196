package eval

import (
	"sqlsheet/internal/aggs"
	"sqlsheet/internal/types"
)

// AggBatch wraps one aggregate's batch accumulator (aggs.SumBatch & co.)
// behind a uniform grow/feed/merge/result surface, shared by the executor's
// vectorized group-by and the spreadsheet engine's batch partition scan
// (which unboxes its one group).
// Exactly one field is set, per the aggregate's name.
type AggBatch struct {
	sum   *aggs.SumBatch
	cnt   *aggs.CountBatch
	avg   *aggs.AvgBatch
	mm    *aggs.MinMaxBatch
	slope *aggs.SlopeBatch
	star  bool
}

// NewAggBatch builds the batch accumulator for the named aggregate. kinds
// are the argument vector kinds over the concrete image (nil for COUNT(*));
// MIN/MAX store their extreme in the argument's representation and SLOPE
// needs its (y, x) pair, so a kind list of the wrong shape — or an aggregate
// without a batch form — reports ok=false and the caller keeps the row path.
func NewAggBatch(name string, star bool, kinds []types.Kind) (AggBatch, bool) {
	switch name {
	case "sum":
		return AggBatch{sum: aggs.NewSumBatch()}, true
	case "count":
		return AggBatch{cnt: aggs.NewCountBatch(star), star: star}, true
	case "avg":
		return AggBatch{avg: aggs.NewAvgBatch()}, true
	case "min", "max":
		if len(kinds) != 1 {
			return AggBatch{}, false
		}
		return AggBatch{mm: aggs.NewMinMaxBatch(name == "min", kinds[0])}, true
	case "slope":
		if len(kinds) != 2 {
			return AggBatch{}, false
		}
		return AggBatch{slope: aggs.NewSlopeBatch()}, true
	}
	return AggBatch{}, false
}

// Grow ensures state exists for group ids < n.
func (st AggBatch) Grow(n int) {
	switch {
	case st.sum != nil:
		st.sum.Grow(n)
	case st.cnt != nil:
		st.cnt.Grow(n)
	case st.avg != nil:
		st.avg.Grow(n)
	case st.mm != nil:
		st.mm.Grow(n)
	case st.slope != nil:
		st.slope.Grow(n)
	}
}

// Feed dispatches one batch of argument vectors into the accumulator by
// vector kind; slot k of each vector belongs to group gids[k]. vecs is nil
// for COUNT(*) (every row counts). Kinds the row accumulator skips per value
// — non-numeric under SUM/AVG/SLOPE, any kind under an all-NULL vector —
// feed nothing, which leaves identical state.
func (st AggBatch) Feed(gids []int32, vecs []*ExprVec) {
	switch {
	case st.sum != nil:
		switch v := vecs[0]; v.Kind {
		case types.KindInt:
			st.sum.AddInts(gids, v.Ints, v.Nulls)
		case types.KindFloat:
			st.sum.AddFloats(gids, v.Floats, v.Nulls)
		}
	case st.cnt != nil:
		if st.star || vecs == nil {
			st.cnt.AddRows(gids)
		} else if v := vecs[0]; v.Kind != types.KindNull {
			st.cnt.AddNonNull(gids, v.Nulls)
		}
	case st.avg != nil:
		switch v := vecs[0]; v.Kind {
		case types.KindInt:
			st.avg.AddInts(gids, v.Ints, v.Nulls)
		case types.KindFloat:
			st.avg.AddFloats(gids, v.Floats, v.Nulls)
		}
	case st.mm != nil:
		switch v := vecs[0]; v.Kind {
		case types.KindInt, types.KindBool:
			st.mm.AddInts(gids, v.Ints, v.Nulls)
		case types.KindFloat:
			st.mm.AddFloats(gids, v.Floats, v.Nulls)
		case types.KindString:
			st.mm.AddStrs(gids, v.Strs, v.Nulls)
		}
	case st.slope != nil:
		y, x := vecs[0], vecs[1]
		if !numVecKind(y.Kind) || !numVecKind(x.Kind) {
			return
		}
		ys, ynulls := widenFloats(y)
		xs, xnulls := widenFloats(x)
		st.slope.AddPairs(gids, ys, xs, ynulls, xnulls)
	}
}

// Merge folds every group of src — a partial of the same aggregate over the
// same argument kinds — into this state: src's group sg into group
// into[sg].
func (st AggBatch) Merge(src AggBatch, into []int32) {
	switch {
	case st.sum != nil:
		for sg, g := range into {
			st.sum.Merge(int(g), src.sum, sg)
		}
	case st.cnt != nil:
		for sg, g := range into {
			st.cnt.Merge(int(g), src.cnt, sg)
		}
	case st.avg != nil:
		for sg, g := range into {
			st.avg.Merge(int(g), src.avg, sg)
		}
	case st.mm != nil:
		for sg, g := range into {
			st.mm.Merge(int(g), src.mm, sg)
		}
	case st.slope != nil:
		for sg, g := range into {
			st.slope.Merge(int(g), src.slope, sg)
		}
	}
}

// Result is group g's aggregate value.
func (st AggBatch) Result(g int) types.Value {
	switch {
	case st.sum != nil:
		return st.sum.Result(g)
	case st.cnt != nil:
		return st.cnt.Result(g)
	case st.avg != nil:
		return st.avg.Result(g)
	case st.mm != nil:
		return st.mm.Result(g)
	}
	return st.slope.Result(g)
}

// Unbox materializes group g's state as the ordinary row accumulator.
func (st AggBatch) Unbox(g int) aggs.Agg {
	switch {
	case st.sum != nil:
		return st.sum.Unbox(g)
	case st.cnt != nil:
		return st.cnt.Unbox(g)
	case st.avg != nil:
		return st.avg.Unbox(g)
	case st.mm != nil:
		return st.mm.Unbox(g)
	case st.slope != nil:
		return st.slope.Unbox(g)
	}
	return nil
}

func numVecKind(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }

// widenFloats widens a numeric vector to float64 slots — the same
// float64(int64) machine conversion Value.Float() performs. NULL slots keep
// zero and are masked by the returned null slice.
func widenFloats(v *ExprVec) ([]float64, []bool) {
	if v.Kind == types.KindFloat {
		return v.Floats, v.Nulls
	}
	out := make([]float64, v.Len())
	for k := range out {
		if v.Nulls != nil && v.Nulls[k] {
			continue
		}
		out[k] = float64(v.Ints[k])
	}
	return out, v.Nulls
}
