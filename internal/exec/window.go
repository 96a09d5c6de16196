package exec

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// execWindow computes window functions: rows are hash-partitioned on the
// PARTITION BY keys, ordered within each partition, and each spec's values
// are appended as a new column. Sliding aggregate frames reuse the
// aggregates' algebraic inverses where they exist.
func (ex *Executor) execWindow(n *plan.Window, outer *eval.Binding) (*Result, error) {
	in, err := ex.Execute(n.Input, outer)
	if err != nil {
		return nil, err
	}
	width := len(in.Schema.Cols)
	out := make([]types.Row, len(in.Rows))
	for i, r := range in.Rows {
		row := make(types.Row, width, width+len(n.Specs))
		copy(row, r)
		out[i] = row
	}
	for _, spec := range n.Specs {
		vals, err := ex.windowColumn(spec, n.Compiled, in, outer)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = append(out[i], vals[i])
		}
	}
	return &Result{Schema: n.Schema(), Rows: out}, nil
}

// windowColumn computes one spec's value for every input row, in input
// order.
func (ex *Executor) windowColumn(spec plan.WindowSpec, compiled map[sqlast.Expr]eval.CompiledExpr, in *Result, outer *eval.Binding) ([]types.Value, error) {
	ctx := ex.ctx(in.Schema, nil, outer)
	evalAt := func(e sqlast.Expr, row types.Row) (types.Value, error) {
		ctx.Binding.Row = row
		c, ok := compiled[e]
		if !ok {
			return types.Null, fmt.Errorf("internal error: window expression %s was not compiled", e)
		}
		return c.Eval(ctx)
	}

	// Partition.
	type part struct{ idx []int }
	parts := map[string]*part{}
	var order []string
	var buf []byte
	for i, row := range in.Rows {
		buf = buf[:0]
		for _, pe := range spec.Fn.PartitionBy {
			v, err := evalAt(pe, row)
			if err != nil {
				return nil, err
			}
			buf = types.AppendKey(buf, v)
		}
		p := parts[string(buf)]
		if p == nil {
			p = &part{}
			parts[string(buf)] = p
			order = append(order, string(buf))
		}
		p.idx = append(p.idx, i)
	}

	result := make([]types.Value, len(in.Rows))
	for _, k := range order {
		p := parts[k]
		// Order within the partition (stable: input order breaks ties).
		keys := make([][]types.Value, len(p.idx))
		for j, ri := range p.idx {
			ks := make([]types.Value, len(spec.Fn.OrderBy))
			for oi, o := range spec.Fn.OrderBy {
				v, err := evalAt(o.Expr, in.Rows[ri])
				if err != nil {
					return nil, err
				}
				ks[oi] = v
			}
			keys[j] = ks
		}
		// Chunked parallel sort; stability keeps input order on ties, same
		// as the former explicit a-b tie break.
		pos := ex.sortedPerm("window-sort", len(p.idx), func(a, b int) int {
			for oi := range spec.Fn.OrderBy {
				c := types.Compare(keys[a][oi], keys[b][oi])
				if spec.Fn.OrderBy[oi].Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		ordered := make([]int, len(pos)) // ordered[k] = row index of k-th row
		okeys := make([][]types.Value, len(pos))
		for k2, j := range pos {
			ordered[k2] = p.idx[j]
			okeys[k2] = keys[j]
		}
		if err := ex.fillWindowValues(spec, in, ordered, okeys, evalAt, result); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// sameKeys reports whether two ordering keys tie.
func sameKeys(a, b []types.Value) bool {
	for i := range a {
		if types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// fillWindowValues computes the function over one ordered partition.
func (ex *Executor) fillWindowValues(spec plan.WindowSpec, in *Result, ordered []int,
	okeys [][]types.Value, evalAt func(sqlast.Expr, types.Row) (types.Value, error),
	result []types.Value) error {

	fn := spec.Fn.Func
	n := len(ordered)
	switch fn.Name {
	case "row_number":
		for k, ri := range ordered {
			result[ri] = types.NewInt(int64(k + 1))
		}
		return nil
	case "rank", "dense_rank":
		rank, dense := 1, 1
		for k, ri := range ordered {
			if k > 0 && !sameKeys(okeys[k], okeys[k-1]) {
				rank = k + 1
				dense++
			}
			if fn.Name == "rank" {
				result[ri] = types.NewInt(int64(rank))
			} else {
				result[ri] = types.NewInt(int64(dense))
			}
		}
		return nil
	case "lag", "lead":
		offset := 1
		if len(fn.Args) >= 2 {
			v, err := evalAt(fn.Args[1], in.Rows[ordered[0]])
			if err != nil {
				return err
			}
			offset = int(v.Int())
		}
		for k, ri := range ordered {
			src := k - offset
			if fn.Name == "lead" {
				src = k + offset
			}
			if src < 0 || src >= n {
				if len(fn.Args) >= 3 {
					v, err := evalAt(fn.Args[2], in.Rows[ri])
					if err != nil {
						return err
					}
					result[ri] = v
				} else {
					result[ri] = types.Null
				}
				continue
			}
			v, err := evalAt(fn.Args[0], in.Rows[ordered[src]])
			if err != nil {
				return err
			}
			result[ri] = v
		}
		return nil
	case "first_value", "last_value":
		for k, ri := range ordered {
			lo, hi := frameBounds(spec.Fn, k, n)
			if lo > hi {
				result[ri] = types.Null
				continue
			}
			src := lo
			if fn.Name == "last_value" {
				src = hi
			}
			v, err := evalAt(fn.Args[0], in.Rows[ordered[src]])
			if err != nil {
				return err
			}
			result[ri] = v
		}
		return nil
	}

	// Aggregates over frames.
	argVals := func(k int) ([]types.Value, error) {
		if fn.Star {
			return nil, nil
		}
		vals := make([]types.Value, len(fn.Args))
		for i, a := range fn.Args {
			v, err := evalAt(a, in.Rows[ordered[k]])
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return vals, nil
	}
	acc, err := aggs.New(fn.Name, fn.Star)
	if err != nil {
		return err
	}
	// Sliding evaluation with Add/Remove when the accumulator is
	// invertible; recompute per row otherwise (min/max).
	prevLo, prevHi := 0, -1
	for k, ri := range ordered {
		lo, hi := frameBounds(spec.Fn, k, n)
		if !acc.Invertible() || lo < prevLo {
			acc.Reset()
			prevLo, prevHi = lo, lo-1
		}
		for ; prevLo < lo; prevLo++ {
			vals, err := argVals(prevLo)
			if err != nil {
				return err
			}
			acc.Remove(vals...)
		}
		for prevHi < hi {
			prevHi++
			vals, err := argVals(prevHi)
			if err != nil {
				return err
			}
			acc.Add(vals...)
		}
		for ; prevHi > hi; prevHi-- {
			vals, err := argVals(prevHi)
			if err != nil {
				return err
			}
			acc.Remove(vals...)
		}
		result[ri] = acc.Result()
	}
	return nil
}

// frameBounds returns the [lo, hi] ordered-position range of the frame for
// the row at position k of an n-row partition. The default frame is the
// whole partition without ORDER BY and the cumulative prefix with it.
func frameBounds(w *sqlast.WindowFunc, k, n int) (int, int) {
	if w.Frame == nil {
		if len(w.OrderBy) == 0 {
			return 0, n - 1
		}
		return 0, k
	}
	bound := func(fb sqlast.FrameBound) int {
		switch fb.Kind {
		case sqlast.FrameUnboundedPreceding:
			return 0
		case sqlast.FramePreceding:
			return k - fb.N
		case sqlast.FrameCurrentRow:
			return k
		case sqlast.FrameFollowing:
			return k + fb.N
		case sqlast.FrameUnboundedFollowing:
			return n - 1
		}
		return k
	}
	lo, hi := bound(w.Frame.Start), bound(w.Frame.End)
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi
}
