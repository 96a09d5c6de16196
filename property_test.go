package sqlsheet_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sqlsheet"
	"sqlsheet/internal/core"
	"sqlsheet/internal/plan"
)

// rowsKey flattens a result into a sorted multiset signature.
func rowsKey(res *sqlsheet.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		var parts []string
		for _, v := range r {
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func sameResults(a, b *sqlsheet.Result) bool {
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// randomFactDB builds f(r, p, t, s) with a random sparse fill.
func randomFactDB(t *testing.T, rng *rand.Rand) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	regions := []string{"west", "east", "north"}
	products := []string{"dvd", "vcr", "tv", "video"}
	for _, r := range regions {
		for _, p := range products {
			for year := 1995; year <= 2002; year++ {
				if rng.Intn(3) == 0 {
					continue // sparse
				}
				db.MustExec(fmt.Sprintf(`INSERT INTO f VALUES ('%s','%s',%d,%d)`,
					r, p, year, rng.Intn(100)))
			}
		}
	}
	return db
}

// TestOptimizationsPreserveResults is the central optimizer-soundness
// property: for random data and random outer predicates, the fully
// optimized pipeline (prune + rewrite + push + pushdown) returns exactly
// the rows the unoptimized pipeline returns.
func TestOptimizationsPreserveResults(t *testing.T) {
	products := []string{"dvd", "vcr", "tv", "video"}
	regions := []string{"west", "east", "north"}
	f := func(seed int64, pPick, rPick uint8, yearLo uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomFactDB(t, rng)
		p1 := products[int(pPick)%len(products)]
		p2 := products[(int(pPick)+1)%len(products)]
		r1 := regions[int(rPick)%len(regions)]
		year := 1996 + int(yearLo)%6
		q := fmt.Sprintf(`SELECT * FROM
			(SELECT r, p, t, s FROM f
			 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
			 (
			 F1: s['dvd',2001] = s['dvd', 2000]*1.2,
			 F2: s['vcr',2001] = s['vcr',1998] + s['vcr',1999],
			 F3: s['tv', 2001] = avg(s)['tv', 1995<t<2001],
			 F4: s[*, 2002]    = s[cv(p), 2001] + 1
			 )
			) v
			WHERE p IN ('%s', '%s') AND r = '%s' AND t >= %d`,
			p1, p2, r1, year)
		opt, err := db.Query(q)
		if err != nil {
			t.Logf("optimized: %v", err)
			return false
		}
		db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{
			Plan:   plan.Ablation{DisableSheetPrune: true, DisableSheetPush: true, DisableFilterPushdown: true},
			Engine: core.Ablation{DisableSingleScan: true, DisableRangeProbe: true},
		}})
		raw, err := db.Query(q)
		if err != nil {
			t.Logf("raw: %v", err)
			return false
		}
		if !sameResults(opt, raw) {
			t.Logf("mismatch for %s: opt=%d raw=%d rows", q, len(opt.Rows), len(raw.Rows))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestParallelEqualsSerialProperty checks partition-parallel execution on
// random data, including upserts.
func TestParallelEqualsSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomFactDB(t, rng)
		q := `SELECT r, p, t, s FROM f
			SPREADSHEET PBY(r) DBY (p, t) MEA (s)
			(
			  UPSERT s['all', 2002] = sum(s)[p != 'all', t = 2001],
			  s[*, 2003] = s[cv(p), 2002] * 2
			)`
		serial, err := db.Query(q)
		if err != nil {
			t.Log(err)
			return false
		}
		db.Configure(sqlsheet.Config{Parallel: 3, Ablate: sqlsheet.Ablation{Engine: core.Ablation{Buckets: 7}}})
		par, err := db.Query(q)
		if err != nil {
			t.Log(err)
			return false
		}
		return sameResults(serial, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSpreadsheetOracle compares point-formula evaluation against a naive
// in-test interpretation of the same formulas over the same random data.
func TestSpreadsheetOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// One partition, one dimension: values s[0..9].
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE t1 (x INT, s FLOAT)`)
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
			db.MustExec(fmt.Sprintf(`INSERT INTO t1 VALUES (%d, %g)`, i, vals[i]))
		}
		// Random chain of point formulas evaluated in automatic order.
		// s[a] = s[b] + s[c]; dependencies resolved by the engine.
		a, b, c := rng.Intn(5), 5+rng.Intn(5), 5+rng.Intn(5)
		d := rng.Intn(5)
		if d == a {
			d = (a + 1) % 5 // s[d] = s[a] + s[a] must not self-reference
		}
		q := fmt.Sprintf(`SELECT x, s FROM t1
			SPREADSHEET DBY (x) MEA (s) UPDATE
			( s[%d] = s[%d] + s[%d],
			  s[%d] = s[%d] * 2 )`, d, a, a, a, b)
		// Naive oracle: automatic order evaluates s[a]=s[b]*2 first
		// (the first formula depends on it), then s[d]=s[a]+s[a].
		want := make([]float64, 10)
		copy(want, vals)
		want[a] = want[b] * 2
		want[d] = want[a] + want[a]
		_ = c
		res, err := db.Query(q)
		if err != nil {
			t.Log(err)
			return false
		}
		got := make([]float64, 10)
		for _, r := range res.Rows {
			got[r[0].Int()] = r[1].Float()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: s[%d] = %g, want %g (a=%d b=%d d=%d)", seed, i, got[i], want[i], a, b, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMemoryBudgetPreservesResults: spilling must never change answers.
func TestMemoryBudgetPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := randomFactDB(t, rng)
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s[*, 2002] = avg(s)[cv(p), 1995 <= t <= 2001] )`
	unbounded, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{500, 2000, 100000} {
		db.Configure(sqlsheet.Config{MemoryBudget: budget, SpillDir: t.TempDir(), Ablate: sqlsheet.Ablation{Engine: core.Ablation{Buckets: 5}}})
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !sameResults(unbounded, res) {
			t.Fatalf("budget %d changed results", budget)
		}
	}
}

// TestSequentialVsAutomaticAgreeWhenOrdered: when formulas are listed in
// dependency order, SEQUENTIAL ORDER and AUTOMATIC ORDER agree.
func TestSequentialVsAutomaticAgreeWhenOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randomFactDB(t, rng)
		rules := `( s['dvd', 2001] = s['dvd', 2000] + 1,
			    s['dvd', 2002] = s['dvd', 2001] * 2,
			    s['dvd', 2003] = s['dvd', 2002] - 3 )`
		qa := `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) ` + rules
		qs := `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) SEQUENTIAL ORDER ` + rules
		ra, err := db.Query(qa)
		if err != nil {
			t.Log(err)
			return false
		}
		rs, err := db.Query(qs)
		if err != nil {
			t.Log(err)
			return false
		}
		return sameResults(ra, rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// identicalResults requires exact row order, column order, value kinds and
// rendered values — byte-identical results, not just the same multiset.
func identicalResults(a, b *sqlsheet.Result) bool {
	if len(a.Columns) != len(b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			va, vb := a.Rows[i][j], b.Rows[i][j]
			if va.K != vb.K || va.String() != vb.String() {
				return false
			}
		}
	}
	return true
}

// TestInPlaceWritesNeverLeak is the ownership property of the access
// structure's write path: a row is shared (with the base table's image, with
// the cached pristine structure) until a rule first writes it and is written
// in place from then on, and none of that may be observable. Each statement
// overwrites its own input measure; it runs three times through the
// structure cache (result cache off, so every run evaluates a clone of the
// cached structure) and must return the same bytes each time, the same bytes
// as every other configuration, and leave the base table untouched — across
// MemoryBudget 0/small × Workers 1/4 × batch rules on/off. Run under -race
// by `make race`: PEs write their own buckets while sharing the pristine
// rows and indexes.
func TestInPlaceWritesNeverLeak(t *testing.T) {
	queries := []string{
		// Self-read, so the per-cell path: s is overwritten cell by cell.
		`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) SEQUENTIAL ORDER
		 ( s[*, *] = s[cv(p), cv(t)] * 2 ) ORDER BY r, p, t`,
		// The batch path when enabled, under UPSERT: s overwritten from v, a
		// second measure of the same rows written by a later rule, a cell
		// created. No computed measure, so the input rows are g's own.
		`SELECT r, p, t, s, v, x, y FROM g SPREADSHEET PBY(r) DBY(p, t) MEA(s, v, x, y)
		 RULES UPSERT ( s[*, *] = v[cv(p), cv(t)] * 2,
		                x[*, *] = s[cv(p), cv(t)] + v[cv(p), cv(t)],
		                y['new', 2001] = v['dvd', 2001] * 2 ) ORDER BY r, p, t`,
	}
	bases := []string{
		`SELECT r, p, t, s FROM f ORDER BY r, p, t`,
		`SELECT r, p, t, s, v, x, y FROM g ORDER BY r, p, t`,
	}
	var want []*sqlsheet.Result
	for _, budget := range []int64{0, 600} {
		for _, workers := range []int{1, 4} {
			for _, noVec := range []bool{false, true} {
				name := fmt.Sprintf("budget=%d workers=%d batch=%v", budget, workers, !noVec)
				db := randomFactDB(t, rand.New(rand.NewSource(7)))
				db.MustExec(`CREATE TABLE g (r TEXT, p TEXT, t INT, s FLOAT, v FLOAT, x FLOAT, y FLOAT)`)
				for _, row := range db.MustExec(bases[0]).Rows {
					db.MustExec(fmt.Sprintf(`INSERT INTO g VALUES ('%s','%s',%s,%s,%s,0,0)`, row[0], row[1], row[2], row[3], row[3]))
				}
				db.Configure(sqlsheet.Config{
					MemoryBudget: budget, SpillDir: t.TempDir(),
					Workers: workers, Parallel: workers,
					Ablate: sqlsheet.Ablation{
						DisableResultCache: true,
						Engine:             core.Ablation{Buckets: 3, DisableVectorizedRules: noVec, VecMinRows: 1},
					},
				})
				var before []*sqlsheet.Result
				for _, b := range bases {
					before = append(before, db.MustExec(b))
				}
				for qi, q := range queries {
					for run := 0; run < 3; run++ {
						res, err := db.Query(q)
						if err != nil {
							t.Fatalf("%s: query %d run %d: %v", name, qi, run, err)
						}
						if len(want) <= qi {
							want = append(want, res)
							if identicalResults(res, before[qi]) {
								t.Fatalf("query %d did not overwrite its input measure", qi)
							}
						}
						if !identicalResults(res, want[qi]) {
							t.Fatalf("%s: query %d run %d differs:\n%s\nwant:\n%s", name, qi, run, res, want[qi])
						}
					}
				}
				for bi, b := range bases {
					if after := db.MustExec(b); !identicalResults(after, before[bi]) {
						t.Fatalf("%s: a spreadsheet write reached the base table:\n%s\nwant:\n%s", name, after, before[bi])
					}
				}
			}
		}
	}
}
