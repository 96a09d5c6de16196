package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// groupByCase fills table t with n rows of nkeys key columns k0… of drawn
// kinds — INT over a narrow range, INT spread so its field takes 23 bits
// (four of them overflow a word), INT spanning more than 2^24 values, FLOAT
// with -0.0 before 0.0, NaN and ±Inf, dictionary STRING, BOOL and all NULL —
// each with NULLs, and value columns v FLOAT (sums whose bits depend on the
// merge points), w INT and s STRING, and returns the GROUP BY statement over
// them (filtered on odd seeds, so the input is a selection of the image).
func groupByCase(t testing.TB, seed int64, nkeys, n int) (*catalog.Catalog, string) {
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1.5, 2, 1e300}
	vals := []float64{0.1, 0.2, 1e16, -1e16, 3, math.Copysign(0, -1), 0, 1e308, 2.5}
	kinds := make([]int, nkeys)
	for j := range kinds {
		kinds[j] = rng.Intn(8)
	}
	draw := func(kind int) types.Value {
		if kind == 7 || rng.Intn(9) == 0 {
			return types.Null
		}
		switch kind {
		case 0:
			return types.NewInt(int64(rng.Intn(5)) - 2)
		case 1:
			return types.NewInt([]int64{0, 5, 1<<23 - 1}[rng.Intn(3)])
		case 2:
			return types.NewInt(int64(rng.Intn(4)) << 30)
		case 3:
			return types.NewFloat(floats[rng.Intn(len(floats))])
		case 4:
			return types.NewString("s" + strconv.Itoa(rng.Intn(6)))
		case 5:
			return types.NewBool(rng.Intn(2) == 0)
		}
		return types.NewInt(int64(rng.Intn(3)))
	}
	cols := []types.Column{{Name: "v", Kind: types.KindFloat}, {Name: "w", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}}
	keys := make([]string, nkeys)
	for j := range keys {
		keys[j] = "k" + strconv.Itoa(j)
		cols = append(cols, types.Column{Name: keys[j]})
	}
	cat := catalog.New()
	tbl, err := cat.Create("t", types.NewSchema(cols...))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		v := types.NewFloat(vals[rng.Intn(len(vals))])
		if rng.Intn(6) == 0 {
			v = types.Null
		}
		w := types.NewInt(int64(rng.Intn(7)) - 3)
		if rng.Intn(8) == 0 {
			w = types.Null
		}
		rows[i] = types.Row{v, w, types.NewString(string(rune('a' + rng.Intn(4))))}
		for _, kind := range kinds {
			rows[i] = append(rows[i], draw(kind))
		}
	}
	if err := tbl.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	cat.PublishAll()
	sel := strings.Join(append(keys, "SUM(v)", "SUM(w)", "COUNT(v)", "COUNT(*)", "AVG(v)", "MIN(v)", "MAX(v)",
		"MIN(w)", "MAX(s)", "SLOPE(v, w)"), ", ")
	q := "SELECT " + sel + " FROM t"
	if seed%2 != 0 {
		q += " WHERE w <> 0 OR w IS NULL"
	}
	if nkeys > 0 {
		q += " GROUP BY " + strings.Join(keys, ", ")
	}
	return cat, q
}

// runBits runs q with opts (of opts.PlanOpts, only the optimizer's
// toggles count) and renders every value as its kind and bits.
func runBits(t testing.TB, cat *catalog.Catalog, q string, opts Options) (string, *Executor) {
	stmts, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
	ex := New(cat, opts)
	po := &plan.Options{Exec: ex, Engine: opts.Engine}
	if opts.PlanOpts != nil {
		po.Ablate = opts.PlanOpts.Ablate
	}
	ex.Opts.PlanOpts = po
	res, err := ex.ExecStatement(stmts[0])
	if err != nil {
		return "error: " + err.Error(), ex
	}
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			switch v.K {
			case types.KindFloat:
				fmt.Fprintf(&b, " F%x", math.Float64bits(v.F))
			case types.KindNull:
				b.WriteString(" N")
			default:
				fmt.Fprintf(&b, " %d:%q", v.K, v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String(), ex
}

// opNote is the note of the statement's line for op.
func opNote(ex *Executor, op string) string {
	for _, o := range ex.ExecStats.Ops {
		if o.Op == op {
			return o.Note
		}
	}
	return ""
}

// FuzzGroupBy: over random key and value columns, the batch group-by
// returns, bit for bit, what the row path returns — groups in first-seen
// order, float sums merged at the same morsel boundaries, MIN/MAX keeping
// the earlier of tied values — at one worker and at four, for any morsel
// size.
func FuzzGroupBy(f *testing.F) {
	for _, s := range []struct {
		seed          int64
		nkeys, n, mor uint8
	}{{1, 1, 60, 4}, {2, 2, 200, 16}, {3, 3, 150, 7}, {4, 4, 255, 9}, {5, 0, 40, 3}, {6, 2, 0, 1}, {7, 0, 0, 2}, {8, 4, 180, 31}} {
		f.Add(s.seed, s.nkeys, s.n, s.mor)
	}
	f.Fuzz(func(t *testing.T, seed int64, nkeys, n, mor uint8) {
		cat, q := groupByCase(t, seed, int(nkeys%5), int(n))
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers, Ablate: Ablation{MorselSize: 1 + int(mor%32)}}
			row := opts
			row.Engine.DisableVectorizedExec = true
			want, _ := runBits(t, cat, q, row)
			got, _ := runBits(t, cat, q, opts)
			if got != want {
				t.Fatalf("%s (workers %d, morsel %d):\nbatch\n%s\nrow\n%s", q, workers, opts.Ablate.MorselSize, got, want)
			}
		}
	})
}

// TestGroupByAllocsFollowMorsels: a batch GROUP BY over the same 40,000
// rows allocates about as often for 100 groups as for 20,000 — per morsel,
// not per group: no map, key string, boxed key row or accumulator object
// per group, and each group's key boxed into one flat row backing.
func TestGroupByAllocsFollowMorsels(t *testing.T) {
	const rows = 40000
	allocs := map[int]float64{}
	for _, groups := range []int{100, 20000} {
		cat := catalog.New()
		tbl, err := cat.Create("t", types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "v", Kind: types.KindFloat}))
		if err != nil {
			t.Fatal(err)
		}
		in := make([]types.Row, rows)
		for i := range in {
			in[i] = types.Row{types.NewInt(int64(i % groups)), types.NewFloat(float64(i) * 0.5)}
		}
		if err := tbl.Insert(in...); err != nil {
			t.Fatal(err)
		}
		cat.PublishAll()
		q := `SELECT k, SUM(v), COUNT(*), MAX(v) FROM t GROUP BY k`
		out, ex := runBits(t, cat, q, Options{Workers: 1})
		if note := opNote(ex, "group-by"); note != "keys=packed groups="+strconv.Itoa(groups)+" partials=40" {
			t.Fatalf("%d groups: group-by line %q\n%s", groups, note, out[:min(len(out), 200)])
		}
		stmts, _ := parser.Parse(q)
		allocs[groups] = testing.AllocsPerRun(5, func() {
			ex := New(cat, Options{Workers: 1})
			ex.Opts.PlanOpts = &plan.Options{Exec: ex}
			if _, err := ex.ExecStatement(stmts[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := allocs[20000] - allocs[100]; d >= 64 || d <= -64 {
		t.Errorf("allocations: %v for 100 groups, %v for 20,000; want them within 64", allocs[100], allocs[20000])
	}
	t.Logf("allocations: %v for 100 groups, %v for 20,000", allocs[100], allocs[20000])
}

// TestFilterBytesFollowKept pins the batch filter's allocation: each morsel
// selects into a pooled buffer, so a filter that keeps 1/8 of 40,000 rows
// allocates about its 5,000 kept positions (20 KB, the merged selection),
// not a morsel-sized slice per morsel as well (160 KB more).
func TestFilterBytesFollowKept(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	const rows = 40000
	in := make([]types.Row, rows)
	for i := range in {
		in[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) * 0.5)}
	}
	bs := eval.NewBoundSchema([]eval.BoundCol{{Name: "k"}, {Name: "v"}})
	cond, err := parser.ParseExpr(`v < 2500`)
	if err != nil {
		t.Fatal(err)
	}
	k := eval.CompileSelKernel(bs, cond)
	src := &Result{Schema: bs, Img: colstore.FromRows(2, in)}
	ex := New(catalog.New(), Options{Workers: 1})
	run := func() int {
		res, err := ex.vecFilter(src, k, bs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	if got := run(); got != rows/8 {
		t.Fatalf("the filter kept %d rows, want %d", got, rows/8)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes per filter", perRun)
	if want := 2 * 4 * rows / 8; perRun > float64(want) {
		t.Errorf("the filter allocates %.0f bytes; want at most %d (twice its kept positions)", perRun, want)
	}
}
