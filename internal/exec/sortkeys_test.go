package exec

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// sortKeyCase draws key columns of the kinds the typed path distinguishes —
// INT over a narrow and over the full range, FLOAT with NaNs of two
// payloads, ±Inf and -0.0, dictionary and plain STRING, BOOL, all NULL,
// and a column mixing kinds — each with NULLs, and returns the rows as a
// Result: with columnar provenance over a larger image (a random
// selection of its rows), or without.
func sortKeyCase(seed int64, nkeys, n int) (in *Result, items []keyItem) {
	rng := rand.New(rand.NewSource(seed))
	kinds := make([]int, nkeys)
	for j := range kinds {
		kinds[j] = rng.Intn(8)
	}
	nan2 := math.Float64frombits(0x7ff8000000000002)
	floats := []float64{math.NaN(), nan2, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300, 3}
	draw := func(kind int) types.Value {
		if rng.Intn(7) == 0 {
			return types.Null
		}
		switch kind {
		case 0:
			return types.NewInt(int64(rng.Intn(9)) - 4)
		case 1:
			return types.NewInt(int64(rng.Uint64()))
		case 2:
			return types.NewFloat(floats[rng.Intn(len(floats))])
		case 3, 4:
			return types.NewString("s" + strconv.Itoa(rng.Intn(12)))
		case 5:
			return types.NewBool(rng.Intn(2) == 0)
		case 6:
			return types.Null
		}
		switch rng.Intn(4) { // mixed kinds
		case 0:
			return types.NewInt(int64(rng.Intn(5)))
		case 1:
			return types.NewFloat(floats[rng.Intn(len(floats))])
		case 2:
			return types.NewString("m" + strconv.Itoa(rng.Intn(3)))
		}
		return types.NewBool(rng.Intn(2) == 0)
	}
	total := n + rng.Intn(n+1)
	all := make([]types.Row, total)
	for i := range all {
		all[i] = make(types.Row, nkeys)
		for j, kind := range kinds {
			all[i][j] = draw(kind)
		}
	}
	cols := make([]eval.BoundCol, nkeys)
	for j := range cols {
		cols[j] = eval.BoundCol{Name: "k" + strconv.Itoa(j)}
	}
	schema := eval.NewBoundSchema(cols)
	for j := range cols {
		e := &sqlast.ColumnRef{Name: cols[j].Name}
		items = append(items, keyItem{expr: e, c: eval.Compile(schema, e), desc: rng.Intn(2) == 0})
	}
	pick := rng.Perm(total)[:n]
	in = &Result{Schema: schema, Rows: make([]types.Row, n)}
	for i, p := range pick {
		in.Rows[i] = all[p]
	}
	if img := colstore.FromRows(nkeys, all); img != nil && rng.Intn(3) > 0 {
		for j, kind := range kinds {
			if c := img.Cols[j]; kind == 4 && c.IsDict() { // the same strings, stored plain
				plain := &colstore.Column{Kind: c.Kind, N: c.N, Nulls: c.Nulls, Strs: make([]string, c.N)}
				for i := range plain.Strs {
					if !c.IsNull(i) {
						plain.Strs[i] = c.Str(i)
					}
				}
				img.Cols[j] = plain
			}
		}
		in.Img, in.RowIdx = img, make([]int32, n)
		for i, p := range pick {
			in.RowIdx[i] = int32(p)
		}
	}
	return in, items
}

// boxedPerm is the definition: a stable sort of the rows by types.Order.
func boxedPerm(in *Result, items []keyItem) []int {
	perm := make([]int, len(in.Rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := in.Rows[perm[a]], in.Rows[perm[b]]
		for j, it := range items {
			c := types.Order(ra[j], rb[j])
			if it.desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return perm
}

// FuzzSortKeys: over random key columns, the typed permutation (image or
// evaluated keys, packed or per key, any worker count and morsel size)
// equals the boxed types.Order permutation, and the top-k is its prefix.
func FuzzSortKeys(f *testing.F) {
	for _, s := range []struct {
		seed      int64
		nkeys, n  uint8
		k, morsel uint8
	}{{1, 1, 40, 5, 8}, {2, 3, 200, 17, 16}, {3, 4, 120, 0, 4}, {4, 2, 255, 255, 32}, {5, 1, 1, 1, 1}, {6, 4, 0, 0, 2}} {
		f.Add(s.seed, s.nkeys, s.n, s.k, s.morsel)
	}
	f.Fuzz(func(t *testing.T, seed int64, nkeys, n, k, morsel uint8) {
		in, items := sortKeyCase(seed, 1+int(nkeys%4), int(n))
		want := boxedPerm(in, items)
		for _, opts := range []Options{
			{Workers: 1},
			{Workers: 4, Ablate: Ablation{MorselSize: 1 + int(morsel%32)}},
		} {
			ex := New(nil, opts)
			for _, boxed := range []bool{false, true} {
				ex.Opts.Engine.DisableVectorizedExec = boxed
				sk, _, err := ex.keysOf("sort-keys", in, items, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, _, _ := ex.sortPerm(sk)
				if !slices.Equal(got, want) {
					t.Fatalf("%s (workers %d): permutation\n got %v\nwant %v", sk.note(), opts.Workers, got, want)
				}
				if kk := int(k) % (len(want) + 1); kk < len(want) {
					if top := sk.topK(kk); !slices.Equal(top, want[:kk]) {
						t.Fatalf("%s: top-%d\n got %v\nwant %v", sk.note(), kk, top, want[:kk])
					}
				}
			}
		}
	})
}

// TestSortKeysPack pins when keys pack into one word: integer keys whose
// ranges multiply into a uint64, and not a full-range INT or a FLOAT.
func TestSortKeysPack(t *testing.T) {
	ints := func(vs ...int64) *colstore.Column {
		vals := make([]types.Value, len(vs))
		for i, v := range vs {
			vals[i] = types.NewInt(v)
		}
		return colstore.FromValues(vals, true)
	}
	for _, c := range []struct {
		name   string
		cols   []*colstore.Column
		packed bool
	}{
		{"small ints", []*colstore.Column{ints(3, -1, 7), ints(0, 0, 1)}, true},
		{"dictionary", []*colstore.Column{colstore.FromValues([]types.Value{types.NewString("b"), types.Null, types.NewString("a")}, true)}, true},
		{"full range", []*colstore.Column{ints(math.MinInt64, 0, math.MaxInt64)}, false},
		{"product overflows", []*colstore.Column{ints(0, 1<<40), ints(0, 1<<30)}, false},
		{"float", []*colstore.Column{colstore.FromValues([]types.Value{types.NewFloat(1), types.NewFloat(2)}, true)}, false},
	} {
		sk := &sortKeys{keys: make([]sortKey, len(c.cols)), n: c.cols[0].N}
		for j, col := range c.cols {
			sk.keys[j].fromColumn(col, nil, col.N)
		}
		sk.pack()
		if got := sk.words != nil; got != c.packed {
			t.Errorf("%s: packed %v, want %v", c.name, got, c.packed)
		}
	}
}
