package exec

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// TestJoinRowsFromChunks: on the row path the hash join copies each
// morsel's pairs into one flat backing, and a join that emits positions has
// its rows boxed once, from one flat backing per morsel. Either way each row
// has cap == len so an append to one never writes its neighbour, and a row
// the residual rejects leaves no gap: consecutive kept rows sit side by
// side. A LEFT JOIN's null-extended rows read NULL on the build side.
func TestJoinRowsFromChunks(t *testing.T) {
	cat, run := newEnv(t)
	mustRun(t, run, `CREATE TABLE a (k INT, x INT)`)
	mustRun(t, run, `CREATE TABLE b (k INT, y INT)`)
	for i := 0; i < 100; i++ {
		mustRun(t, run, "INSERT INTO a VALUES ("+itoa(i)+", "+itoa(i%3)+")")
		if i%10 != 0 {
			mustRun(t, run, "INSERT INTO b VALUES ("+itoa(i)+", 0), ("+itoa(i)+", 5)")
		} else {
			mustRun(t, run, "INSERT INTO b VALUES ("+itoa(i)+", 0)")
		}
	}
	q, err := parser.ParseQuery(`SELECT a.k, a.x, b.k, b.y FROM a LEFT JOIN b ON a.k = b.k AND a.x < b.y`)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{"rows", "positions"} {
		ex := New(cat, Options{Workers: 1})
		ex.Opts.Engine.DisableVectorizedExec = out == "rows"
		ex.Opts.PlanOpts = &plan.Options{Exec: ex, Engine: ex.Opts.Engine}
		node, err := plan.Build(cat, q, ex.Opts.PlanOpts)
		if err != nil {
			t.Fatal(err)
		}
		// The join's own rows, not those of a projection above it.
		for _, ok := node.(*plan.Join); !ok; _, ok = node.(*plan.Join) {
			node = node.Children()[0]
		}
		res, err := ex.Execute(node, nil)
		if err != nil {
			t.Fatal(err)
		}
		if note := opNote(ex, "join-probe"); !strings.HasSuffix(note, "out="+out) {
			t.Fatalf("join-probe note %q, want out=%s", note, out)
		}
		if len(res.Rows) != 100 {
			t.Fatalf("%s: %d rows, want one per row of a", out, len(res.Rows))
		}
		size := unsafe.Sizeof(types.Value{})
		breaks := 0
		for i, r := range res.Rows {
			if cap(r) != len(r) || len(r) != 4 {
				t.Fatalf("%s: row %d: len %d cap %d, want 4 and 4", out, i, len(r), cap(r))
			}
			k := r[0].I
			switch {
			case k%10 == 0 && r[2].K != types.KindNull:
				t.Errorf("%s: row %d: %v, want b's side NULL (the residual rejects its only match)", out, i, r)
			case k%10 != 0 && (r[2].I != k || r[3].I != 5):
				t.Errorf("%s: row %d: %v, want b.k = %d, b.y = 5", out, i, r, k)
			}
			if i > 0 && uintptr(unsafe.Pointer(&r[0]))-uintptr(unsafe.Pointer(&res.Rows[i-1][0])) != 4*size {
				breaks++
			}
		}
		// One morsel: its rows, copied from pairs or boxed from positions,
		// share one backing.
		if breaks > 0 {
			t.Errorf("%s: %d breaks between consecutive rows, want none", out, breaks)
		}
	}
}

// TestJoinEmitsPositions: a join under a batch group-by boxes no row. Its
// bytes grow with matches × width by a typed slot per cell (the gathered
// image), not by a boxed value of 40 bytes per cell and a row header per
// match: 40,000 matches of 1 + 1 + 2 INT key columns and 2 + 2·extra
// others, at extra = 1 and 8, under one worker. Before the join emitted
// positions the same runs allocated 21.8 and 49.6 MB per statement (50
// bytes per extra cell and match); with it, 6.5 and 11.1 MB (8).
func TestJoinEmitsPositions(t *testing.T) {
	const probe, perKey, keys = 10000, 4, 500
	bytes := map[int]float64{}
	for _, extra := range []int{1, 8} {
		cat := catalog.New()
		for _, tb := range []struct {
			name string
			n    int
			key  func(i int) int64
		}{{"p", probe, func(i int) int64 { return int64(i % keys) }}, {"d", keys * perKey, func(i int) int64 { return int64(i / perKey) }}} {
			cols := []types.Column{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindFloat}}
			for j := 0; j < extra; j++ {
				cols = append(cols, types.Column{Name: "e" + strconv.Itoa(j), Kind: types.KindInt})
			}
			tbl, err := cat.Create(tb.name, types.NewSchema(cols...))
			if err != nil {
				t.Fatal(err)
			}
			in := make([]types.Row, tb.n)
			for i := range in {
				in[i] = types.Row{types.NewInt(tb.key(i)), types.NewFloat(float64(i) * 0.5)}
				for j := 0; j < extra; j++ {
					in[i] = append(in[i], types.NewInt(int64(i*j)))
				}
			}
			if err := tbl.Insert(in...); err != nil {
				t.Fatal(err)
			}
		}
		cat.PublishAll()
		q := `SELECT d.e0, SUM(p.v), COUNT(*) FROM p JOIN d ON p.k = d.k GROUP BY d.e0`
		out, ex := runBits(t, cat, q, Options{Workers: 1})
		if note := opNote(ex, "join-probe"); note != "matches="+strconv.Itoa(probe*perKey)+" out=positions" {
			t.Fatalf("join-probe line %q\n%s", note, out)
		}
		if note := opNote(ex, "group-by"); !strings.HasPrefix(note, "keys=packed") {
			t.Fatalf("group-by line %q, want the batch group-by", note)
		}
		stmts, _ := parser.Parse(q)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			ex := New(cat, Options{Workers: 1})
			ex.Opts.PlanOpts = &plan.Options{Exec: ex}
			if _, err := ex.ExecStatement(stmts[0]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes[extra] = float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	perCell := (bytes[8] - bytes[1]) / (probe * perKey * 2 * 7)
	t.Logf("bytes per statement: %.1f MB at 1 extra column, %.1f MB at 8; %.0f per extra cell and match",
		bytes[1]/1e6, bytes[8]/1e6, perCell)
	if perCell > 20 {
		t.Errorf("%.0f bytes per extra cell and match, want a typed slot (8), not a boxed value (40)", perCell)
	}
	if bytes[8] > 20e6 {
		t.Errorf("%.1f MB per statement at 8 extra columns, want under 20 (49.6 while the join boxed rows)", bytes[8]/1e6)
	}
}

func itoa(i int) string { return types.NewInt(int64(i)).String() }

// joinCase fills a(k0…, x) and b(k0…, y) with na and nb rows over nkeys key
// columns of drawn kinds — dictionary strings over different dictionaries
// on the two sides, INT over a narrow range, INT spanning more than 2^24
// values, FLOAT with -0.0, 0.0, NaN and ±Inf, integral FLOATs on one side
// against INTs on the other, BOOL, and INTs spanning 15 million values, of
// which three overflow a word — each with NULLs, and returns a join over
// them. The flags pick the join type, a residual, a computed key on either
// side, and a filter that makes the left side a selection of its image.
func joinCase(t testing.TB, seed int64, nkeys, na, nb int, flags uint8) (*catalog.Catalog, string) {
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 1.5, 2}
	kinds := make([]int, nkeys)
	for j := range kinds {
		kinds[j] = rng.Intn(7)
	}
	draw := func(kind int, side int) types.Value {
		if rng.Intn(9) == 0 {
			return types.Null
		}
		switch kind {
		case 0:
			return types.NewString("s" + strconv.Itoa(rng.Intn(6)+3*side))
		case 1:
			return types.NewInt(int64(rng.Intn(5)) - 2)
		case 2:
			return types.NewInt(int64(rng.Intn(4)) << 30)
		case 3:
			return types.NewFloat(floats[rng.Intn(len(floats))])
		case 4:
			if side == 0 {
				return types.NewFloat([]float64{math.Copysign(0, -1), 1, 2, 2.5, 3}[rng.Intn(5)])
			}
			return types.NewInt(int64(rng.Intn(4)))
		case 5:
			return types.NewBool(rng.Intn(2) == 0)
		}
		return types.NewInt([]int64{0, 5, 15000000}[rng.Intn(3)])
	}
	cat := catalog.New()
	for side, name := range []string{"a", "b"} {
		var cols []types.Column
		for j := range kinds {
			cols = append(cols, types.Column{Name: "k" + strconv.Itoa(j)})
		}
		cols = append(cols, types.Column{Name: []string{"x", "y"}[side], Kind: types.KindInt})
		tbl, err := cat.Create(name, types.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, []int{na, nb}[side])
		for i := range rows {
			for _, kind := range kinds {
				rows[i] = append(rows[i], draw(kind, side))
			}
			rows[i] = append(rows[i], types.NewInt(int64(rng.Intn(6))))
		}
		if err := tbl.Insert(rows...); err != nil {
			t.Fatal(err)
		}
	}
	cat.PublishAll()
	var on []string
	for j := range kinds {
		l, r := "a.k"+strconv.Itoa(j), "b.k"+strconv.Itoa(j)
		if j == 0 && flags&8 != 0 {
			l = "CASE WHEN a.x >= 0 THEN " + l + " END"
		}
		if j == 0 && flags&16 != 0 {
			r = "CASE WHEN b.y >= 0 THEN " + r + " END"
		}
		on = append(on, l+" = "+r)
	}
	if flags&4 != 0 {
		on = append(on, "a.x <= b.y")
	}
	q := "SELECT * FROM a " + []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "JOIN"}[flags&3] + " b ON " + strings.Join(on, " AND ")
	if flags&32 != 0 {
		q += " WHERE a.x <> 1"
	}
	return cat, q
}

// FuzzHashJoin: over random key columns, the hash join on key words returns
// what the nested loop returns — the same rows in the same order (probe
// order, then ascending build row), every value in kind and bits — for
// INNER, LEFT and RIGHT joins, with and without a residual, with and
// without columnar provenance, at one worker and at four, for any morsel
// size. A NULL or a NaN key matches nothing, as = says. The consumer stage
// feeds the join to a group-by on a key column of either side (the batch
// group-by over the join's positions, the row path over the nested loop's
// rows) and to a computed projection, and holds them to the same bits.
func FuzzHashJoin(f *testing.F) {
	for _, s := range []struct {
		seed               int64
		nkeys, na, nb, mor uint8
		flags              uint8
	}{{1, 1, 60, 40, 4, 0}, {2, 2, 100, 80, 16, 1}, {3, 3, 70, 90, 7, 2}, {4, 3, 120, 50, 9, 4 | 32},
		{5, 1, 40, 0, 3, 1 | 8}, {6, 2, 0, 30, 1, 2 | 16}, {7, 3, 90, 90, 31, 64 | 5}, {8, 2, 50, 60, 5, 64 | 8 | 16 | 2}} {
		f.Add(s.seed, s.nkeys, s.na, s.nb, s.mor, s.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, nkeys, na, nb, mor, flags uint8) {
		cat, q := joinCase(t, seed, 1+int(nkeys%3), int(na), int(nb), flags)
		from, _ := strings.CutPrefix(q, "SELECT * ")
		group := []string{"a.k0", "b.k0"}[seed&1]
		for _, q := range []string{q,
			"SELECT " + group + ", SUM(a.x), COUNT(*), SUM(b.y * 0.5), MIN(b.y) " + from + " GROUP BY " + group,
			"SELECT a.x * 2 + b.y, b.k0, a.k0, b.y * 0.25 " + from,
		} {
			for _, workers := range []int{1, 4} {
				opts := Options{Workers: workers, Ablate: Ablation{MorselSize: 1 + int(mor%32)}}
				opts.Engine.DisableVectorizedExec = flags&64 != 0
				loop := opts
				loop.PlanOpts = &plan.Options{Ablate: plan.Ablation{ForceJoin: plan.JoinNestedLoop}}
				want, _ := runBits(t, cat, q, loop)
				got, ex := runBits(t, cat, q, opts)
				if got != want {
					t.Fatalf("%s (workers %d, morsel %d, provenance %v):\nhash\n%s\nnested loop\n%s", q, workers,
						opts.Ablate.MorselSize, flags&64 == 0, got, want)
				}
				if opNote(ex, "join-build") == "" {
					t.Fatalf("%s: no hash join ran", q)
				}
			}
		}
	})
}

// TestHashJoinAllocsFollowMorsels: a LEFT JOIN of 40,000 probe rows to
// 20,000 build rows allocates about as often when the build holds 100
// distinct keys as when it holds 20,000 — per morsel, not per key: the
// build's words sit in one slot table and one row list, with no map entry,
// key string or row slice per key. No probe key matches, so both joins emit
// the same 40,000 null-extended rows.
func TestHashJoinAllocsFollowMorsels(t *testing.T) {
	allocs := map[int]float64{}
	for _, keys := range []int{100, 20000} {
		cat := catalog.New()
		for _, tb := range []struct {
			name string
			n    int
			key  func(i int) int64
		}{{"p", 40000, func(i int) int64 { return -1 - int64(i%1000) }}, {"d", 20000, func(i int) int64 { return int64(i % keys) }}} {
			tbl, err := cat.Create(tb.name, types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "v", Kind: types.KindFloat}))
			if err != nil {
				t.Fatal(err)
			}
			in := make([]types.Row, tb.n)
			for i := range in {
				in[i] = types.Row{types.NewInt(tb.key(i)), types.NewFloat(float64(i) * 0.5)}
			}
			if err := tbl.Insert(in...); err != nil {
				t.Fatal(err)
			}
		}
		cat.PublishAll()
		q := `SELECT COUNT(*) FROM p LEFT JOIN d ON p.k = d.k`
		out, ex := runBits(t, cat, q, Options{Workers: 1})
		if note := opNote(ex, "join-build"); note != "keys=packed distinct="+strconv.Itoa(keys) {
			t.Fatalf("%d keys: join-build line %q\n%s", keys, note, out)
		}
		stmts, _ := parser.Parse(q)
		allocs[keys] = testing.AllocsPerRun(5, func() {
			ex := New(cat, Options{Workers: 1})
			ex.Opts.PlanOpts = &plan.Options{Exec: ex}
			if _, err := ex.ExecStatement(stmts[0]); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := allocs[20000] - allocs[100]; d >= 64 || d <= -64 {
		t.Errorf("allocations: %v for 100 keys, %v for 20,000; want them within 64", allocs[100], allocs[20000])
	}
	t.Logf("allocations: %v for 100 keys, %v for 20,000", allocs[100], allocs[20000])
}

// TestCTEReferencesShareTheResult: a CTE referenced twice runs once, and
// an unfiltered reference hands on the body's positions over its image
// rather than a copy of boxed rows. Over the 3,000 × 3,000 comma join (one
// match per key), each reference is the cached image and positions, no row
// exists, and reading a reference allocates no per-row slice (3,000 rows
// would be 72 KB).
func TestCTEReferencesShareTheResult(t *testing.T) {
	const n = 3000
	cat := catalog.New()
	for _, tb := range []struct{ name, val string }{{"a", "x"}, {"b", "y"}} {
		tbl, err := cat.Create(tb.name, types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: tb.val, Kind: types.KindFloat}))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) / 4)}
		}
		if err := tbl.Insert(rows...); err != nil {
			t.Fatal(err)
		}
	}
	cat.PublishAll()
	q := `WITH v AS (SELECT a.k, x, y FROM a, b WHERE a.k = b.k) SELECT l.k, r.y FROM v l, v r WHERE l.k = r.k`
	stmts, err := parser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(cat, Options{Workers: 1})
	ex.Opts.PlanOpts = &plan.Options{Exec: ex}
	p, err := plan.Build(cat, stmts[0].(*sqlast.SelectStmt), ex.Opts.PlanOpts)
	if err != nil {
		t.Fatal(err)
	}
	var refs []*plan.CTERef
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if r, ok := n.(*plan.CTERef); ok {
			refs = append(refs, r)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p)
	if len(refs) != 2 {
		t.Fatalf("want two CTE references:\n%s", plan.Explain(p))
	}
	first, err := ex.run(refs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := ex.run(refs[1], nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*Result{first, second} {
		if r.Rows != nil || r.Len() != n || r.Img != first.Img || unsafe.SliceData(r.RowIdx) != unsafe.SliceData(first.RowIdx) {
			t.Fatalf("reference %d: rows %v, len %d, shared image %v", i, r.Rows != nil, r.Len(), r.Img == first.Img)
		}
	}
	if b := after.TotalAlloc - before.TotalAlloc; b > 8*n {
		t.Errorf("reading the second reference allocated %d bytes", b)
	}
	res, err := ex.ExecStatement(stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("statement returned %d rows, want %d", len(res.Rows), n)
	}
}
