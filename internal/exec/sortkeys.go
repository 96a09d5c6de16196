package exec

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"time"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file is the one sort-key path of ORDER BY and window functions. Each
// key column becomes a typed vector over the rows being sorted: gathered
// from the columnar image when the input carries provenance and the key is
// a plain column, else evaluated per row and built with colstore.FromValues.
// A dictionary string compares by its dictionary's sort rank, INT and FLOAT
// as native values. When every key is an integer (INT, BOOL or a dictionary
// rank) and their ranges multiply into one uint64, each row's keys pack
// into one word (mixed radix, the direction applied per key) and the sort
// is a sort of words. A key column whose values mix kinds, and every key
// when the vectorized exec layer is off, keeps the boxed comparator. All
// three orders are types.Order with input position breaking ties, so every
// path, worker count and morsel size yields the same permutation.

// keyKind is the representation of one sort-key column.
type keyKind uint8

const (
	keyNull  keyKind = iota // every row NULL: all rows tie
	keyInt                  // INT, BOOL, dictionary rank
	keyFloat                // FLOAT
	keyStr                  // plain strings
	keyBoxed                // boxed values under types.Order
)

// sortKey is one sort-key column over the rows being sorted, indexed by
// input position.
type sortKey struct {
	kind   keyKind
	desc   bool
	nulls  colstore.Bitmap // typed kinds: NULL rows; nil = none
	ints   []int64
	floats []float64
	strs   []string
	vals   []types.Value // keyBoxed
	// lo and span bound a keyInt column's non-NULL values: they lie in
	// [lo, lo+span); span 0 = unknown or wider than a uint64.
	lo   int64
	span uint64
}

func (k *sortKey) null(i int) bool { return k.nulls != nil && k.nulls.Get(i) }

// cmp orders rows a and b by this key alone (types.Order, then direction).
func (k *sortKey) cmp(a, b int) int {
	var c int
	switch k.kind {
	case keyNull:
		return 0
	case keyBoxed:
		c = types.Order(k.vals[a], k.vals[b])
	default:
		an, bn := k.null(a), k.null(b)
		switch {
		case an || bn:
			if an == bn {
				return 0
			}
			c = 1
			if bn {
				c = -1
			}
		case k.kind == keyInt:
			c = cmp.Compare(k.ints[a], k.ints[b])
		case k.kind == keyFloat:
			c = types.OrderFloat(k.floats[a], k.floats[b])
		default:
			c = strings.Compare(k.strs[a], k.strs[b])
		}
	}
	if k.desc {
		return -c
	}
	return c
}

// nanBits reports row i's NaN bits when the key holds a NaN there: rows
// Order ties although their canonical keys (types.AppendKey) differ.
func (k *sortKey) nanBits(i int) (uint64, bool) {
	var f float64
	switch {
	case k.kind == keyFloat && !k.null(i):
		f = k.floats[i]
	case k.kind == keyBoxed && k.vals[i].K == types.KindFloat:
		f = k.vals[i].F
	default:
		return 0, false
	}
	return math.Float64bits(f), f != f
}

// fromColumn makes k the typed key of c's rows idx[0], idx[1], ... (rows
// 0..n-1 when idx is nil).
func (k *sortKey) fromColumn(c *colstore.Column, idx []int32, n int) {
	row := func(i int) int {
		if idx != nil {
			return int(idx[i])
		}
		return i
	}
	if c.Nulls != nil {
		k.nulls = colstore.NewBitmap(n)
		for i := 0; i < n; i++ {
			if c.Nulls.Get(row(i)) {
				k.nulls.Set(i)
			}
		}
	}
	switch c.Kind {
	case types.KindNull:
		k.kind = keyNull
	case types.KindInt, types.KindBool:
		k.kind, k.ints = keyInt, make([]int64, n)
		lo, hi, seen := int64(0), int64(0), false
		for i := range k.ints {
			v := c.Ints[row(i)]
			k.ints[i] = v
			if k.null(i) {
				continue
			}
			if !seen || v < lo {
				lo = v
			}
			if !seen || v > hi {
				hi = v
			}
			seen = true
		}
		if d := uint64(hi - lo); d < math.MaxUint64 {
			k.lo, k.span = lo, d+1
		}
	case types.KindFloat:
		k.kind, k.floats = keyFloat, make([]float64, n)
		for i := range k.floats {
			k.floats[i] = c.Floats[row(i)]
		}
	case types.KindString:
		if !c.IsDict() {
			k.kind, k.strs = keyStr, make([]string, n)
			for i := range k.strs {
				k.strs[i] = c.Strs[row(i)]
			}
			break
		}
		rank := c.DictRank()
		k.kind, k.ints, k.span = keyInt, make([]int64, n), uint64(len(rank))
		for i := range k.ints {
			if !k.null(i) {
				k.ints[i] = int64(rank[c.Codes[row(i)]])
			}
		}
	}
}

// sortKeys are the key columns of one sort. words, when set, holds each
// row's keys packed into one word whose order is the keys' order.
type sortKeys struct {
	keys  []sortKey
	n     int
	words []uint64
	boxed string // why the keys are boxed ("" = typed)
}

// keyItem is one key of a sort: its expression, compiled form and direction.
type keyItem struct {
	expr sqlast.Expr
	c    eval.CompiledExpr
	desc bool
}

// keysOf builds the key columns of items over in's rows, and returns the
// input it read: in itself, or in boxed when an item had to be evaluated
// per row over an unboxed input.
func (ex *Executor) keysOf(op string, in *Result, items []keyItem, outer *eval.Binding) (*sortKeys, *Result, error) {
	n := in.Len()
	typed := !ex.Opts.Engine.DisableVectorizedExec
	sk := &sortKeys{keys: make([]sortKey, len(items)), n: n}
	if !typed {
		sk.boxed = "disabled"
	}
	var evalAt []int // items evaluated per row
	for j, it := range items {
		sk.keys[j].desc = it.desc
		if typed && vecOK(in) {
			if ord, ok := eval.PlainOrdinal(in.Schema, it.expr); ok {
				if c := vecCol(in, ord); c != nil {
					sk.keys[j].fromColumn(c, in.RowIdx, n)
					continue
				}
			}
		}
		evalAt = append(evalAt, j)
	}
	if len(evalAt) > 0 {
		cs := make([]eval.CompiledExpr, len(evalAt))
		exprs := make([]sqlast.Expr, len(evalAt))
		for t, j := range evalAt {
			cs[t], exprs[t] = items[j].c, items[j].expr
		}
		var err error
		if in, err = ex.boxed(in); err != nil {
			return nil, nil, err
		}
		vals, err := ex.evalKeys(op, in, cs, exprs, outer)
		if err != nil {
			return nil, nil, err
		}
		for t, j := range evalAt {
			k := &sk.keys[j]
			if typed {
				if c := colstore.FromValues(vals[t], true); c != nil {
					k.fromColumn(c, nil, n)
					continue
				}
				sk.boxed = "mixed-kinds"
			}
			k.kind, k.vals = keyBoxed, vals[t]
		}
	}
	sk.pack()
	return sk, in, nil
}

// evalKeys evaluates cs over every row of in into one value column per
// expression. Rows are evaluated in order, all keys of a row before the
// next row (per morsel), so the first error is the serial engine's.
func (ex *Executor) evalKeys(op string, in *Result, cs []eval.CompiledExpr, exprs []sqlast.Expr, outer *eval.Binding) ([][]types.Value, error) {
	nr := len(in.Rows)
	vals := make([][]types.Value, len(cs))
	for j := range vals {
		vals[j] = make([]types.Value, nr)
	}
	extract := func(ctx *eval.Context, m morsel) error {
		for i := m.Lo; i < m.Hi; i++ {
			ctx.Binding.Row = in.Rows[i]
			for j, c := range cs {
				v, err := c.Eval(ctx)
				if err != nil {
					return err
				}
				vals[j][i] = v
			}
		}
		return nil
	}
	if nr == 0 {
		return vals, nil
	}
	if anyHasSubquery(exprs) {
		// Subqueries keep the serial path (shared runner state).
		return vals, extract(ex.ctx(in.Schema, nil, outer), morsel{Lo: 0, Hi: nr})
	}
	wcs := ex.workerCtxs(in.Schema, outer)
	used, err := ex.forEachMorsel(op, nr, func(w int, m morsel) error {
		return extract(wcs.get(w), m)
	})
	if err == nil && !used {
		err = extract(wcs.get(0), morsel{Lo: 0, Hi: nr})
	}
	return vals, err
}

// pack sets words when every key is an integer column whose ranges, one
// slot more for NULL, multiply into one uint64: a row's word is its keys'
// mixed-radix number, most significant first, a descending key's digit
// reversed, NULL the last digit of its key.
func (sk *sortKeys) pack() {
	radix := make([]uint64, len(sk.keys))
	prod := uint64(1)
	for j := range sk.keys {
		k := &sk.keys[j]
		switch {
		case k.kind == keyNull:
			radix[j] = 1
			continue
		case k.kind != keyInt || k.span == 0:
			return
		}
		radix[j] = k.span
		if k.nulls != nil {
			if radix[j]++; radix[j] == 0 {
				return
			}
		}
		hi, lo := bits.Mul64(prod, radix[j])
		if hi != 0 {
			return
		}
		prod = lo
	}
	if len(sk.keys) == 0 {
		return
	}
	words := make([]uint64, sk.n)
	for j := range sk.keys {
		k, r := &sk.keys[j], radix[j]
		if r == 1 {
			continue
		}
		for i := range words {
			d := r - 1
			if !k.null(i) {
				d = uint64(k.ints[i] - k.lo)
			}
			if k.desc {
				d = r - 1 - d
			}
			words[i] = words[i]*r + d
		}
	}
	sk.words = words
}

// note describes the key path for EXPLAIN ANALYZE.
func (sk *sortKeys) note() string {
	switch {
	case sk.boxed != "":
		return "keys=boxed(" + sk.boxed + ")"
	case sk.words != nil:
		return "keys=typed,packed"
	}
	return "keys=typed"
}

// cmp orders rows a and b by every key (0 = tie).
func (sk *sortKeys) cmp(a, b int) int {
	if sk.words != nil {
		return cmp.Compare(sk.words[a], sk.words[b])
	}
	for j := range sk.keys {
		if c := sk.keys[j].cmp(a, b); c != 0 {
			return c
		}
	}
	return 0
}

// tie reports whether rows a and b tie on keys[lo:hi].
func (sk *sortKeys) tie(a, b, lo, hi int) bool {
	for j := lo; j < hi; j++ {
		if sk.keys[j].cmp(a, b) != 0 {
			return false
		}
	}
	return true
}

// before is the total order of a sort: keys, then input position.
func (sk *sortKeys) before(a, b int) bool {
	c := sk.cmp(a, b)
	return c < 0 || (c == 0 && a < b)
}

// sortPerm returns the permutation that stable-sorts the rows by the keys,
// with the run count and workers a comparator sort used. Packed words with
// room for the position in their low digits sort as plain distinct words,
// so any sort yields the stable order; otherwise sortedPerm runs the
// comparator.
func (ex *Executor) sortPerm(sk *sortKeys) (perm []int, morsels, workers int) {
	n := uint64(sk.n)
	if sk.words != nil {
		if hi, lo := bits.Mul64(maxWord(sk.words)+1, n); hi == 0 && lo != 0 {
			ws := make([]uint64, n)
			for i, w := range sk.words {
				ws[i] = w*n + uint64(i)
			}
			slices.Sort(ws)
			perm = make([]int, n)
			for i, w := range ws {
				perm[i] = int(w % n)
			}
			return perm, 0, 1
		}
	}
	return ex.sortedPerm(sk.n, sk.cmp)
}

func maxWord(ws []uint64) uint64 {
	var m uint64
	for _, w := range ws {
		m = max(m, w)
	}
	return m
}

// topK returns the first k positions of the stable sort by the keys (k <
// n): a bounded max-heap of k positions under (keys, position) — each row
// is compared with the heap's last-placed row and rejected in one
// comparison unless it belongs — then the k sorted.
func (sk *sortKeys) topK(k int) []int {
	h := make([]int, 0, k)
	if k == 0 {
		return h
	}
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			m := l
			if r := l + 1; r < len(h) && sk.before(h[l], h[r]) {
				m = r
			}
			if !sk.before(h[i], h[m]) {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := 0; i < sk.n; i++ {
		if len(h) < k {
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !sk.before(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if sk.before(i, h[0]) {
			h[0] = i
			down(0)
		}
	}
	slices.SortFunc(h, func(a, b int) int {
		switch {
		case a == b:
			return 0
		case sk.before(a, b):
			return -1
		}
		return 1
	})
	return h
}

// permuted is in's rows in perm's order. Provenance follows the rows: the
// image rows are permuted alongside, and an unboxed input gives an unboxed
// output.
func permuted(in *Result, schema *eval.BoundSchema, perm []int) *Result {
	out := &Result{Schema: schema}
	if !in.unboxed() {
		out.Rows = make([]types.Row, len(perm))
		for i, p := range perm {
			out.Rows[i] = in.Rows[p]
		}
	}
	if vecOK(in) {
		ridx := make([]int32, len(perm))
		for i, p := range perm {
			ridx[i] = resImgRow(in, p)
		}
		out.Img, out.RowIdx, out.ColMap = in.Img, ridx, in.ColMap
	}
	return out
}

// opLine records the line of an operator that ran on the coordinating
// goroutine (morsels and workers from a parallel sort), with its note.
func (ex *Executor) opLine(op string, rows, morsels, workers int, start time.Time, note string) {
	ex.recordOp(OpStat{Op: op, Rows: rows, Morsels: morsels, Workers: max(workers, 1), Elapsed: time.Since(start), Note: note})
}
