package exec

import (
	"math"
	"math/rand"
	"testing"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// refFrame is the frame of the row at position k of an n-row partition, by
// the definition: [lo, hi] clipped to the partition, empty when lo > hi;
// without a frame clause the cumulative prefix (with ORDER BY) or the whole
// partition.
func refFrame(fr *sqlast.WindowFrame, ordered bool, k, n int) (lo, hi int) {
	if fr == nil {
		if ordered {
			return 0, k
		}
		return 0, n - 1
	}
	at := func(b sqlast.FrameBound) int {
		switch b.Kind {
		case sqlast.FrameUnboundedPreceding:
			return 0
		case sqlast.FramePreceding:
			return k - b.N
		case sqlast.FrameFollowing:
			return k + b.N
		case sqlast.FrameUnboundedFollowing:
			return n - 1
		}
		return k
	}
	return max(at(fr.Start), 0), min(at(fr.End), n-1)
}

// sameBits reports whether two values have one kind and the same bits.
func sameBits(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case types.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case types.KindInt:
		return a.I == b.I
	}
	return true
}

// FuzzWindowFrames: over random ROWS frames — every bound kind, offsets
// 0–5, and no frame clause — and random INT, FLOAT, NULL, NaN, ±Inf and
// ±1e308 arguments, every aggregate's value at every row equals, bit for
// bit, what a new accumulator fed exactly that row's frame returns: its
// rows in window order, or from the partition's end when the frame ends at
// UNBOUNDED FOLLOWING and its start moves.
func FuzzWindowFrames(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(1), uint8(1), uint8(2), uint8(0))   // 1 PRECEDING AND CURRENT ROW
	f.Add(int64(2), uint8(12), uint8(0), uint8(0), uint8(2), uint8(0))  // UNBOUNDED PRECEDING AND CURRENT ROW
	f.Add(int64(3), uint8(12), uint8(2), uint8(0), uint8(4), uint8(0))  // CURRENT ROW AND UNBOUNDED FOLLOWING
	f.Add(int64(4), uint8(9), uint8(1), uint8(3), uint8(1), uint8(2))   // 3 PRECEDING AND 2 PRECEDING
	f.Add(int64(5), uint8(9), uint8(3), uint8(2), uint8(4), uint8(0))   // 2 FOLLOWING AND UNBOUNDED FOLLOWING
	f.Add(int64(6), uint8(9), uint8(3), uint8(1), uint8(1), uint8(1))   // 1 FOLLOWING AND 1 PRECEDING
	f.Add(int64(7), uint8(20), uint8(5), uint8(0), uint8(0), uint8(0))  // no frame clause
	f.Add(int64(8), uint8(20), uint8(4), uint8(0), uint8(0), uint8(0))  // UNBOUNDED FOLLOWING AND UNBOUNDED PRECEDING
	f.Add(int64(9), uint8(0), uint8(1), uint8(1), uint8(3), uint8(1))   // an empty partition
	f.Add(int64(10), uint8(23), uint8(3), uint8(1), uint8(3), uint8(5)) // 1 FOLLOWING AND 5 FOLLOWING
	f.Add(int64(11), uint8(23), uint8(0), uint8(0), uint8(3), uint8(4)) // UNBOUNDED PRECEDING AND 4 FOLLOWING
	f.Fuzz(func(t *testing.T, seed int64, n, sk, sn, ek, en uint8) {
		rng := rand.New(rand.NewSource(seed))
		floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 0.1, 2.5, math.Copysign(0, -1)}
		draw := func() types.Value {
			switch rng.Intn(4) {
			case 0:
				return types.Null
			case 1:
				return types.NewInt(int64(rng.Intn(11)) - 5)
			}
			return types.NewFloat(floats[rng.Intn(len(floats))])
		}
		rows := int(n % 24)
		in := &Result{Schema: eval.NewBoundSchema([]eval.BoundCol{{Name: "x"}, {Name: "y"}}), Rows: make([]types.Row, rows)}
		for i := range in.Rows {
			in.Rows[i] = types.Row{draw(), draw()}
		}
		// The window order: a permutation of the input rows.
		ordered := rng.Perm(rows)

		var fr *sqlast.WindowFrame
		if sk%6 < 5 {
			fr = &sqlast.WindowFrame{
				Start: sqlast.FrameBound{Kind: sqlast.FrameBoundKind(sk % 6), N: int(sn % 6)},
				End:   sqlast.FrameBound{Kind: sqlast.FrameBoundKind(ek % 5), N: int(en % 6)},
			}
		}
		x, y := &sqlast.ColumnRef{Name: "x"}, &sqlast.ColumnRef{Name: "y"}
		compiled := map[sqlast.Expr]eval.CompiledExpr{x: eval.Compile(in.Schema, x), y: eval.Compile(in.Schema, y)}
		col := map[sqlast.Expr]int{x: 0, y: 1}
		w := &windowRun{in: in, compiled: compiled, ctx: &eval.Context{Binding: &eval.Binding{BS: in.Schema}}}
		backward := fr != nil && fr.Start.Kind != sqlast.FrameUnboundedPreceding && fr.End.Kind == sqlast.FrameUnboundedFollowing
		for _, fn := range []*sqlast.FuncCall{
			{Name: "sum", Args: []sqlast.Expr{x}},
			{Name: "count", Args: []sqlast.Expr{x}},
			{Name: "count", Star: true},
			{Name: "avg", Args: []sqlast.Expr{x}},
			{Name: "min", Args: []sqlast.Expr{x}},
			{Name: "max", Args: []sqlast.Expr{x}},
			{Name: "slope", Args: []sqlast.Expr{x, y}},
		} {
			// Without a frame clause, odd seeds take the whole partition.
			var order []sqlast.OrderItem
			if fr != nil || seed%2 == 0 {
				order = []sqlast.OrderItem{{Expr: x}}
			}
			spec := plan.WindowSpec{Fn: &sqlast.WindowFunc{Func: fn, OrderBy: order, Frame: fr}}
			got := make([]types.Value, rows)
			if err := w.fill(spec, ordered, got); err != nil {
				t.Fatal(err)
			}
			for k, ri := range ordered {
				lo, hi := refFrame(fr, order != nil, k, rows)
				acc, _ := aggs.New(fn.Name, fn.Star)
				feed := func(j int) {
					var vals []types.Value
					for _, a := range fn.Args {
						vals = append(vals, in.Rows[ordered[j]][col[a]])
					}
					acc.Add(vals...)
				}
				if backward {
					for j := hi; j >= lo; j-- {
						feed(j)
					}
				} else {
					for j := lo; j <= hi; j++ {
						feed(j)
					}
				}
				if want := acc.Result(); !sameBits(got[ri], want) {
					t.Fatalf("%s(%v) over frame %+v, row %d of %d (frame [%d, %d]): got %v (%v), want %v (%v)",
						fn.Name, fn.Args, fr, k, rows, lo, hi, got[ri], got[ri].K, want, want.K)
				}
			}
		}
	})
}
