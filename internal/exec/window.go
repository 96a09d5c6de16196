package exec

import (
	"encoding/binary"
	"fmt"
	"time"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// execWindow computes window functions. The specs that share a (PARTITION
// BY, ORDER BY) pair share one stable sort of the input by the partition
// keys then the order keys (sortkeys.go); one sweep over the sorted rows
// finds the partitions — runs of rows whose partition keys tie — and fills
// each spec's values partition by partition. Rows leave in input order, or,
// when the plan absorbed an ORDER BY into the window (Window.Order), in the
// order of that sort: the one the absorbed ORDER BY would have produced.
// The output keeps the input's columnar provenance; the window columns lie
// outside it.
func (ex *Executor) execWindow(n *plan.Window, outer *eval.Binding) (*Result, error) {
	in, err := ex.Execute(n.Input, outer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nr, width := len(in.Rows), len(in.Schema.Cols)
	vals := make([][]types.Value, len(n.Specs))
	for si := range vals {
		vals[si] = make([]types.Value, nr)
	}
	var order []int // the fused output order
	parts, notes := 0, ""
	done := make([]bool, len(n.Specs))
	for si, spec := range n.Specs {
		if done[si] {
			continue
		}
		// This spec and every later one with the same keys. A fused
		// window's specs all share them: the plan checked that on input
		// column ordinals (plan.fuseWindowOrder).
		group := []int{si}
		for sj := si + 1; sj < len(n.Specs); sj++ {
			if !done[sj] && (n.Order != nil || sameWindowKeys(spec.Fn, n.Specs[sj].Fn)) {
				group = append(group, sj)
			}
		}
		for _, sj := range group {
			done[sj] = true
		}
		items := make([]keyItem, 0, len(spec.Fn.PartitionBy)+len(spec.Fn.OrderBy))
		np := len(spec.Fn.PartitionBy)
		if n.Order != nil {
			np = len(n.Order) - len(spec.Fn.OrderBy)
			for _, it := range n.Order {
				items = append(items, keyItem{expr: it.Expr, c: n.Compiled[it.Expr], desc: it.Desc})
			}
		} else {
			for _, p := range spec.Fn.PartitionBy {
				items = append(items, keyItem{expr: p, c: n.Compiled[p]})
			}
			for _, o := range spec.Fn.OrderBy {
				items = append(items, keyItem{expr: o.Expr, c: n.Compiled[o.Expr], desc: o.Desc})
			}
		}
		keys, _, err := ex.keysOf("window-keys", in, items, outer)
		if err != nil {
			return nil, err
		}
		perm, _, _ := ex.sortPerm(keys)
		if n.Order != nil {
			order = perm
		}
		w := &windowRun{in: in, compiled: n.Compiled, ctx: ex.ctx(in.Schema, nil, outer), keys: keys, np: np}
		lo := 0
		for i := 1; i <= nr; i++ {
			if i < nr && keys.tie(perm[i-1], perm[i], 0, np) {
				continue
			}
			if order != nil && n.Limit >= 0 && lo >= n.Limit {
				break // no row of this partition or a later one is emitted
			}
			for _, part := range keys.splitNaN(perm[lo:i], np) {
				parts++
				for _, sj := range group {
					if err := w.fill(n.Specs[sj], part, vals[sj]); err != nil {
						return nil, err
					}
				}
			}
			lo = i
		}
		notes = keys.note()
	}
	if order != nil && n.Limit >= 0 && n.Limit < nr {
		order = order[:n.Limit]
	}
	// Output rows: the input row then the window values, in one backing.
	nout, rw := nr, width+len(n.Specs)
	if order != nil {
		nout = len(order)
	}
	flat := make([]types.Value, nout*rw)
	rows := make([]types.Row, nout)
	for i := range rows {
		src := i
		if order != nil {
			src = order[i]
		}
		row := flat[i*rw : (i+1)*rw : (i+1)*rw]
		copy(row, in.Rows[src])
		for si := range vals {
			row[width+si] = vals[si][src]
		}
		rows[i] = row
	}
	out := &Result{Schema: n.Schema(), Rows: rows}
	if vecOK(in) {
		ridx := in.RowIdx
		if order != nil {
			ridx = make([]int32, nout)
			for i, src := range order {
				ridx[i] = resImgRow(in, src)
			}
		}
		cmap := in.ColMap // explicit, so the window columns lie outside it
		if cmap == nil {
			cmap = make([]int, width)
			for j := range cmap {
				cmap[j] = j
			}
		}
		out.Img, out.RowIdx, out.ColMap = in.Img, ridx, cmap
	}
	if n.Limit >= 0 {
		notes = fmt.Sprintf("k=%d %s", n.Limit, notes)
	}
	ex.opLine("window", nr, 0, 1, start, fmt.Sprintf("partitions=%d %s", parts, notes))
	return out, nil
}

// sameWindowKeys reports whether two specs partition and order alike.
func sameWindowKeys(a, b *sqlast.WindowFunc) bool {
	if len(a.PartitionBy) != len(b.PartitionBy) || len(a.OrderBy) != len(b.OrderBy) {
		return false
	}
	for i := range a.PartitionBy {
		if a.PartitionBy[i].String() != b.PartitionBy[i].String() {
			return false
		}
	}
	for i := range a.OrderBy {
		if a.OrderBy[i].Desc != b.OrderBy[i].Desc || a.OrderBy[i].Expr.String() != b.OrderBy[i].Expr.String() {
			return false
		}
	}
	return true
}

// splitNaN returns the partitions of a run of rows whose first np keys tie.
// Tied keys are one partition unless one of them is NaN: NaNs of different
// bits are different partition keys (types.AppendKey), so such a run splits
// by their bits, each part keeping the run's order.
func (sk *sortKeys) splitNaN(run []int, np int) [][]int {
	var nan []int
	for j := 0; j < np; j++ {
		if _, ok := sk.keys[j].nanBits(run[0]); ok {
			nan = append(nan, j)
		}
	}
	if nan == nil {
		return [][]int{run}
	}
	var parts [][]int
	at := map[string]int{}
	var buf []byte
	for _, r := range run {
		buf = buf[:0]
		for _, j := range nan {
			b, _ := sk.keys[j].nanBits(r)
			buf = binary.BigEndian.AppendUint64(buf, b)
		}
		p, ok := at[string(buf)]
		if !ok {
			p = len(parts)
			at[string(buf)] = p
			parts = append(parts, nil)
		}
		parts[p] = append(parts[p], r)
	}
	return parts
}

// windowRun is the state one sort's partitions share.
type windowRun struct {
	in       *Result
	compiled map[sqlast.Expr]eval.CompiledExpr
	ctx      *eval.Context
	keys     *sortKeys
	np       int           // keys[:np] partition, keys[np:] order
	args     []types.Value // argVals' scratch
}

// evalAt evaluates a spec expression at input row ri.
func (w *windowRun) evalAt(e sqlast.Expr, ri int) (types.Value, error) {
	w.ctx.Binding.Row = w.in.Rows[ri]
	c, ok := w.compiled[e]
	if !ok {
		return types.Null, fmt.Errorf("internal error: window expression %s was not compiled", e)
	}
	return c.Eval(w.ctx)
}

// peers reports whether input rows a and b tie on the order keys.
func (w *windowRun) peers(a, b int) bool {
	return w.keys.tie(a, b, w.np, len(w.keys.keys))
}

// fill computes spec's function over one partition, its input rows in
// window order, into result (indexed by input row).
func (w *windowRun) fill(spec plan.WindowSpec, ordered []int, result []types.Value) error {

	fn := spec.Fn.Func
	n := len(ordered)
	switch fn.Name {
	case "row_number":
		for k, ri := range ordered {
			result[ri] = types.NewInt(int64(k + 1)) // interp-ok: the window column is a boxed value per row
		}
		return nil
	case "rank", "dense_rank":
		rank, dense := 1, 1
		for k, ri := range ordered {
			if k > 0 && !w.peers(ordered[k-1], ri) {
				rank = k + 1
				dense++
			}
			if fn.Name == "rank" {
				result[ri] = types.NewInt(int64(rank)) // interp-ok: the window column is a boxed value per row
			} else {
				result[ri] = types.NewInt(int64(dense)) // interp-ok: the window column is a boxed value per row
			}
		}
		return nil
	case "lag", "lead":
		offset := 1
		if len(fn.Args) >= 2 {
			v, err := w.evalAt(fn.Args[1], ordered[0])
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
					v, err := w.evalAt(fn.Args[2], ri)
					if err != nil {
						return err
					}
					result[ri] = v
				} else {
					result[ri] = types.Null
				}
				continue
			}
			v, err := w.evalAt(fn.Args[0], ordered[src])
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
			v, err := w.evalAt(fn.Args[0], ordered[src])
			if err != nil {
				return err
			}
			result[ri] = v
		}
		return nil
	}

	// Aggregates over frames: each row's value is what a fresh accumulator
	// fed exactly its frame's rows returns. Nothing is ever taken back out
	// of an accumulator, so a frame that slides never subtracts a row that
	// left it (a float sum has no inverse).
	acc, err := aggs.New(fn.Name, fn.Star)
	if err != nil {
		return err
	}
	args, err := w.argVals(fn, ordered)
	if err != nil {
		return err
	}
	na := len(fn.Args) // none for COUNT(*)
	add := func(j int) { acc.Add(args[j*na : (j+1)*na]...) }
	switch fr := spec.Fn.Frame; {
	case fr == nil || fr.Start.Kind == sqlast.FrameUnboundedPreceding:
		// The start is fixed and the end never moves back: one forward pass
		// adds each row once, in partition order.
		last := -1
		for k, ri := range ordered {
			_, hi := frameBounds(spec.Fn, k, n)
			for ; last < hi; last++ {
				add(last + 1)
			}
			result[ri] = acc.Result()
		}
	case fr.End.Kind == sqlast.FrameUnboundedFollowing:
		// The end is fixed and the start only moves forward: one backward
		// pass adds each row once, from the partition's last row.
		first := n
		for k := n - 1; k >= 0; k-- {
			lo, _ := frameBounds(spec.Fn, k, n)
			for ; first > lo; first-- {
				add(first - 1)
			}
			result[ordered[k]] = acc.Result()
		}
	default:
		// Both ends move (or one is pinned to the wrong side, leaving at
		// most one row): each row re-adds its frame, in partition order.
		for k, ri := range ordered {
			lo, hi := frameBounds(spec.Fn, k, n)
			acc.Reset()
			for j := lo; j <= hi; j++ {
				add(j)
			}
			result[ri] = acc.Result()
		}
	}
	return nil
}

// argVals evaluates fn's arguments once per row of one partition, in window
// order: row k's values are vals[k*len(fn.Args):(k+1)*len(fn.Args)]. The
// slice is scratch reused by the next partition.
func (w *windowRun) argVals(fn *sqlast.FuncCall, ordered []int) ([]types.Value, error) {
	vals := w.args[:0]
	for _, ri := range ordered {
		for _, a := range fn.Args {
			v, err := w.evalAt(a, ri)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
	}
	w.args = vals
	return vals, nil
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
