// Serving-path cache integration tests: byte-identical results across cache
// tiers (including immediately after DML invalidation), EXPLAIN annotations,
// QueryOpStats counters, and concurrent access with eviction churn.
package sqlsheet_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlsheet"
)

// cacheTestDB builds the shared dataset: a cell-addressable fact table, a
// small dimension, and a view over both.
func cacheTestDB(t testing.TB, cfg sqlsheet.Config) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	db.Configure(cfg)
	db.MustExec(`CREATE TABLE sales (r TEXT, p TEXT, t INT, s FLOAT)`)
	var rows [][]any
	for ri, r := range []string{"west", "east"} {
		for _, p := range []string{"dvd", "vcr", "tv"} {
			for yr := 1998; yr <= 2002; yr++ {
				rows = append(rows, []any{r, p, yr, float64((ri*13+len(p)*7+yr)%23) + 1})
			}
		}
	}
	if err := db.Insert("sales", rows...); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE names (p TEXT, label TEXT)`)
	if err := db.Insert("names",
		[]any{"dvd", "digital"}, []any{"vcr", "tape"}, []any{"tv", "set"}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE VIEW totals AS SELECT r, SUM(s) total FROM sales GROUP BY r`)
	return db
}

// cacheQueries is the property-test query set: plain scans, join + group by,
// a subquery, a view read, and a spreadsheet with upsert rules over
// aggregates (the artifacts the cache stores at every tier).
var cacheQueries = []string{
	`SELECT r, p, t, s FROM sales WHERE s > 5 ORDER BY r, p, t`,
	`SELECT n.label, SUM(f.s) tot FROM sales f JOIN names n ON f.p = n.p
		GROUP BY n.label ORDER BY n.label`,
	`SELECT r, p, s FROM sales WHERE s > (SELECT AVG(s) FROM sales)
		ORDER BY r, p, s`,
	`SELECT r, total FROM totals ORDER BY r`,
	`SELECT r, p, t, s FROM sales
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s['net', 2003] = sum(s)['dvd', 1998 <= t <= 2002]
		                 + avg(s)['vcr', 1998 <= t <= 2002],
		  s['dvd', 2003] = s['dvd', 2002] * 1.1 )
		ORDER BY r, p, t`,
}

func render(t testing.TB, db *sqlsheet.DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res.String()
}

// TestCacheByteIdenticalResults is the correctness property: with the cache
// fully on, with only plan/structure reuse, and with the cache off, every
// query renders byte-identically — on first execution, on a repeat (served
// from progressively warmer tiers), and immediately after each of INSERT,
// UPDATE and DELETE invalidated the cached artifacts.
func TestCacheByteIdenticalResults(t *testing.T) {
	tiers := []struct {
		name string
		cfg  sqlsheet.Config
	}{
		{"full-cache", sqlsheet.Config{}},
		{"plan-only", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}}},
		{"no-cache", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}},
	}
	dbs := make([]*sqlsheet.DB, len(tiers))
	for i, tier := range tiers {
		dbs[i] = cacheTestDB(t, tier.cfg)
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range cacheQueries {
			want := ""
			for i, tier := range tiers {
				for run := 0; run < 2; run++ {
					got := render(t, dbs[i], q)
					if want == "" {
						want = got
						continue
					}
					if got != want {
						t.Errorf("%s: tier %s run %d diverged on %q:\ngot:\n%s\nwant:\n%s",
							stage, tier.name, run, q, got, want)
					}
				}
			}
		}
	}
	check("initial")

	dml := []string{
		`INSERT INTO sales VALUES ('west', 'dvd', 2003, 42.5)`,
		`UPDATE sales SET s = s + 1 WHERE p = 'vcr' AND t = 2000`,
		`DELETE FROM sales WHERE r = 'east' AND t = 1998`,
		`INSERT INTO names VALUES ('amp', 'audio')`,
	}
	for _, stmt := range dml {
		for _, db := range dbs {
			db.MustExec(stmt)
		}
		// Immediately after the DML: the warm tiers must notice the version
		// bump and not serve the pre-DML plan artifacts or result.
		check(stmt)
	}
}

// TestCacheExplainAnnotations checks the EXPLAIN-visible cache state.
func TestCacheExplainAnnotations(t *testing.T) {
	db := cacheTestDB(t, sqlsheet.Config{})
	q := cacheQueries[4] // the spreadsheet query: has an access structure

	p1, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p1, "cache: plan miss") {
		t.Errorf("first Explain should report a plan miss:\n%s", p1)
	}
	p2, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p2, "cache: plan hit") {
		t.Errorf("second Explain should report a plan hit:\n%s", p2)
	}

	// ExplainAnalyze always executes; the second run reuses the structure
	// built (and cached pristine) by the first and says so, with the table
	// versions the reuse was validated against.
	if _, err := db.ExplainAnalyze(q); err != nil {
		t.Fatal(err)
	}
	a2, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a2, "cache: plan hit") {
		t.Errorf("second ExplainAnalyze should report a plan hit:\n%s", a2)
	}
	if !strings.Contains(a2, "cache: structure reused (table versions ") ||
		!strings.Contains(a2, "sales=") {
		t.Errorf("second ExplainAnalyze should report structure reuse with table versions:\n%s", a2)
	}

	// DML bumps the version: the next run must rebuild (miss), and its
	// annotation must reflect that nothing was reused.
	db.MustExec(`INSERT INTO sales VALUES ('west', 'dvd', 2004, 1.0)`)
	a3, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a3, "cache: plan miss") || strings.Contains(a3, "structure reused") {
		t.Errorf("post-DML ExplainAnalyze should report a miss and no reuse:\n%s", a3)
	}

	// With the cache disabled there must be no cache annotations at all.
	off := cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	p, err := off.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	a, err := off.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p, "cache:") || strings.Contains(a, "cache:") {
		t.Error("DisablePlanCache output must carry no cache annotations")
	}
}

// TestCacheOpStatsCounters checks the QueryOpStats surface: per-call flags
// and cumulative counters across miss → structure reuse → result hit →
// invalidation.
func TestCacheOpStatsCounters(t *testing.T) {
	db := cacheTestDB(t, sqlsheet.Config{})
	q := cacheQueries[4]

	_, st1, err := db.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cache.PlanHit || st1.Cache.ResultHit {
		t.Errorf("first run must be a miss: %+v", st1.Cache)
	}
	if c := db.CacheCounters(); c.PlanMisses == 0 {
		t.Errorf("cumulative misses should count the first run: %+v", c)
	}

	_, st2, err := db.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cache.PlanHit || !st2.Cache.ResultHit {
		t.Errorf("second run should be a result hit: %+v", st2.Cache)
	}
	// A result hit answers before the plan lookup, so only the result
	// counter advances.
	if c := db.CacheCounters(); c.ResultHits == 0 {
		t.Errorf("cumulative result-hit counter should have advanced: %+v", c)
	}

	db.MustExec(`DELETE FROM sales WHERE t = 1998`)
	_, st3, err := db.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cache.PlanHit || st3.Cache.ResultHit {
		t.Errorf("post-DML run must miss: %+v", st3.Cache)
	}
	if c := db.CacheCounters(); c.Invalidations == 0 {
		t.Errorf("invalidation should be counted: %+v", c)
	}

	// Structure reuse shows up when the result tier is off.
	po := cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}})
	if _, _, err := po.QueryOpStats(q); err != nil {
		t.Fatal(err)
	}
	_, st5, err := po.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st5.Cache.PlanHit || st5.Cache.ResultHit {
		t.Errorf("plan-only tier: want plan hit without result hit: %+v", st5.Cache)
	}
	if c := po.CacheCounters(); st5.Cache.StructuresReused == 0 || c.StructReuses == 0 {
		t.Errorf("plan-only tier should reuse the access structure: %+v, %+v", st5.Cache, c)
	}
}

// TestCacheFingerprintSharing checks the end-to-end text path: reformatted
// and re-cased texts of the same statement share one cache entry, across
// Query and Exec alike.
func TestCacheFingerprintSharing(t *testing.T) {
	db := cacheTestDB(t, sqlsheet.Config{})
	if _, err := db.Query(`SELECT r, p, t, s FROM sales WHERE s > 5 ORDER BY r, p, t`); err != nil {
		t.Fatal(err)
	}
	variants := []string{
		"select r,p,t,s from sales where s>5 order by r,p,t",
		"SELECT r, p, t, s\nFROM sales\nWHERE s > 5\nORDER BY r, p, t;",
	}
	for _, v := range variants {
		_, st, err := db.QueryOpStats(v)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cache.ResultHit {
			t.Errorf("variant %q should share the cached entry: %+v", v, st.Cache)
		}
	}
	// Exec routes SELECTs through the same serving path.
	if _, err := db.Exec(variants[0]); err != nil {
		t.Fatal(err)
	}
	_, st, err := db.QueryOpStats(variants[1])
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cache.ResultHit {
		t.Errorf("Exec should have kept the entry warm: %+v", st.Cache)
	}
}

// TestCacheDisabledKnobs checks the ablation knobs really gate each tier.
func TestCacheDisabledKnobs(t *testing.T) {
	q := cacheQueries[0]

	off := cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	for i := 0; i < 2; i++ {
		_, st, err := off.QueryOpStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if c := off.CacheCounters(); st.Cache.PlanHit || st.Cache.ResultHit || c.PlanHits != 0 {
			t.Errorf("DisablePlanCache run %d: cache activity %+v, %+v", i, st.Cache, c)
		}
	}

	po := cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}})
	for i := 0; i < 3; i++ {
		_, st, err := po.QueryOpStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if c := po.CacheCounters(); st.Cache.ResultHit || c.ResultHits != 0 {
			t.Errorf("DisableResultCache run %d: result served from cache %+v, %+v", i, st.Cache, c)
		}
	}
}

// stripCacheNotes drops the "cache: …" lines of an EXPLAIN text.
func stripCacheNotes(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if !strings.HasPrefix(line, "cache:") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestReadPathsAgree crosses every read entry point with every cache mode —
// full, plan-only, off, and busy (each statement's entry held as by a
// concurrent execution, so every call plans and executes privately) — over
// the property queries, before and after DML: rows render byte-identically,
// and plans are identical once the cache lines are stripped.
func TestReadPathsAgree(t *testing.T) {
	modes := []struct {
		name string
		cfg  sqlsheet.Config
		busy bool
	}{
		{"full", sqlsheet.Config{}, false},
		{"plan-only", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}}, false},
		{"off", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}, false},
		{"busy", sqlsheet.Config{}, true},
	}
	reads := []struct {
		name string
		run  func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error)
	}{
		{"Query", (*sqlsheet.DB).Query},
		{"QueryContext", func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
			return db.QueryContext(context.Background(), q)
		}},
		{"QueryStats", func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
			res, _, err := db.QueryStats(q)
			return res, err
		}},
		{"QueryOpStats", func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
			res, _, err := db.QueryOpStats(q)
			return res, err
		}},
		{"Exec", (*sqlsheet.DB).Exec},
		{"Exec after no-op DELETE", func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
			return db.Exec(`DELETE FROM sales WHERE t < 0; ` + q)
		}},
	}
	plans := []struct {
		name string
		run  func(db *sqlsheet.DB, q string) (string, error)
	}{
		{"Explain", (*sqlsheet.DB).Explain},
		{"ExplainAnalyze", func(db *sqlsheet.DB, q string) (string, error) {
			text, err := db.ExplainAnalyze(q)
			plan, _, _ := strings.Cut(text, "\nexecution:\n")
			return plan, err
		}},
	}
	dbs := make([]*sqlsheet.DB, len(modes))
	for i, m := range modes {
		dbs[i] = cacheTestDB(t, m.cfg)
		if m.busy {
			for _, q := range cacheQueries {
				dbs[i].HoldEntry(t, q)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range cacheQueries {
			var wantRows, wantPlan string
			for i, m := range modes {
				for _, r := range reads {
					res, err := r.run(dbs[i], q)
					if err != nil {
						t.Fatalf("%s: %s %s %q: %v", stage, m.name, r.name, q, err)
					}
					if got := res.String(); wantRows == "" {
						wantRows = got
					} else if got != wantRows {
						t.Errorf("%s: %s %s diverged on %q:\ngot:\n%s\nwant:\n%s", stage, m.name, r.name, q, got, wantRows)
					}
				}
				for _, p := range plans {
					text, err := p.run(dbs[i], q)
					if err != nil {
						t.Fatalf("%s: %s %s %q: %v", stage, m.name, p.name, q, err)
					}
					if got := stripCacheNotes(text); wantPlan == "" {
						wantPlan = got
					} else if got != wantPlan {
						t.Errorf("%s: %s %s diverged on %q:\ngot:\n%s\nwant:\n%s", stage, m.name, p.name, q, got, wantPlan)
					}
				}
			}
		}
	}
	check("initial")
	for _, stmt := range []string{
		`INSERT INTO sales VALUES ('west', 'dvd', 2003, 42.5)`,
		`UPDATE sales SET s = s + 1 WHERE p = 'vcr' AND t = 2000`,
	} {
		for _, db := range dbs {
			db.MustExec(stmt)
		}
		check(stmt)
	}
	// The busy mode really never claimed an entry: no plan was looked up.
	if c := dbs[3].CacheCounters(); c.PlanHits+c.PlanMisses != 0 {
		t.Errorf("busy mode reached a cached plan: %+v", c)
	}
}

// TestResultRowsSliceBelongsToCaller pins the Result contract: rows are
// shared with the result cache, but the top-level slice is the caller's, so
// sorting it, overwriting it through a truncate-and-append, or appending to
// it does not change what the next hit returns.
func TestResultRowsSliceBelongsToCaller(t *testing.T) {
	db := cacheTestDB(t, sqlsheet.Config{})
	q := cacheQueries[0]
	want := render(t, db, q)
	for i, change := range []func(rows []sqlsheet.Row) []sqlsheet.Row{
		func(rows []sqlsheet.Row) []sqlsheet.Row {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i][3].Float() > rows[j][3].Float() })
			return rows
		},
		func(rows []sqlsheet.Row) []sqlsheet.Row { return append(rows[:len(rows)-1], rows[0]) },
		func(rows []sqlsheet.Row) []sqlsheet.Row { return append(rows, rows[0]) },
	} {
		res, st, err := db.QueryOpStats(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cache.ResultHit {
			t.Fatalf("change %d: want a result hit, got %+v", i, st.Cache)
		}
		res.Rows = change(res.Rows)
		if got := render(t, db, q); got != want {
			t.Errorf("change %d to the caller's slice reached the cache:\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestCacheConcurrent hammers one cache from many goroutines: readers repeat
// a mix of identical and distinct fingerprints over read-only tables while a
// writer runs DML and queries against its own, disjoint table (the engine's
// concurrency contract: DML must not race queries on the same tables). A
// small budget forces eviction churn throughout. Run under -race via
// `make race`.
func TestCacheConcurrent(t *testing.T) {
	db := cacheTestDB(t, sqlsheet.Config{PlanCacheBudget: 96 << 10})
	db.MustExec(`CREATE TABLE wlog (k INT, v FLOAT)`)

	// Distinct-fingerprint family plus the shared query set, with expected
	// renders precomputed sequentially.
	queries := append([]string(nil), cacheQueries...)
	for thr := 1; thr <= 4; thr++ {
		queries = append(queries, fmt.Sprintf(
			`SELECT r, p, t, s FROM sales WHERE s > %d ORDER BY r, p, t`, thr))
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		want[q] = render(t, db, q)
	}

	const readers, iters = 8, 40
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(g+i)%len(queries)]
				res, err := db.Query(q)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", g, err)
					return
				}
				if got := res.String(); got != want[q] {
					errc <- fmt.Errorf("reader %d: stale/corrupt result for %q", g, q)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		bound := 0 // keys below bound have been deleted
		for i := 0; i < iters; i++ {
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO wlog VALUES (%d, %d.5)`, i, i)); err != nil {
				errc <- fmt.Errorf("writer insert: %v", err)
				return
			}
			res, err := db.Query(`SELECT COUNT(*), SUM(v) FROM wlog`)
			if err != nil {
				errc <- fmt.Errorf("writer query: %v", err)
				return
			}
			if n, want := res.Rows[0][0].Int(), int64(i+1-bound); n != want {
				errc <- fmt.Errorf("writer saw stale count %d after insert %d, want %d", n, i+1, want)
				return
			}
			if i%8 == 7 {
				if _, err := db.Exec(fmt.Sprintf(`DELETE FROM wlog WHERE k < %d`, i-6)); err != nil {
					errc <- fmt.Errorf("writer delete: %v", err)
					return
				}
				bound = i - 6
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
