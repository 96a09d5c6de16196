// Property tests for the vectorized cold path: every query must return
// byte-identical rows (exact float bits, exact order) with vectorized
// execution on and off, at every worker count. The ablation knob
// (Config.Ablate.Engine.DisableVectorizedExec) switches between columnar
// selection kernels and the row-at-a-time compiled closures, so any
// divergence is a semantics bug in a kernel, the columnar image, or key
// encoding — never acceptable drift.
package sqlsheet_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/types"
)

// vectorConfigs is the ablation grid: the first entry is the baseline
// (interpreted, serial); every other entry must match it exactly. Every
// entry runs uncached with a 16-row morsel.
func vectorConfigs() []struct {
	name string
	cfg  sqlsheet.Config
} {
	mk := func(workers int, engine core.Ablation) sqlsheet.Config {
		return sqlsheet.Config{Workers: workers, Ablate: sqlsheet.Ablation{
			DisablePlanCache: true,
			Exec:             exec.Ablation{MorselSize: 16},
			Engine:           engine,
		}}
	}
	return []struct {
		name string
		cfg  sqlsheet.Config
	}{
		{"interp-serial", mk(1, core.Ablation{DisableVectorizedExec: true})},
		{"interp-parallel", mk(8, core.Ablation{DisableVectorizedExec: true})},
		{"vec-serial", mk(1, core.Ablation{})},
		{"vec-parallel", mk(8, core.Ablation{})},
		// Scan/operator kernels on, batch rule application off: isolates the
		// rule-engine ablation from the generic vectorized executor.
		{"rules-off-serial", mk(1, core.Ablation{DisableVectorizedRules: true})},
		{"rules-off-parallel", mk(8, core.Ablation{DisableVectorizedRules: true})},
		// Cutoff forced to 1: every partition takes the batch paths, however
		// small, so the grid's tiny fixtures still exercise the kernels.
		{"vec-low-cutoff", mk(1, core.Ablation{VecMinRows: 1})},
	}
}

// checkVectorGrid runs every query under the ablation grid and fails on the
// first byte-level divergence from the interpreted serial baseline.
func checkVectorGrid(t *testing.T, db *sqlsheet.DB, queries []string) {
	t.Helper()
	grid := vectorConfigs()
	for qi, q := range queries {
		var base []string
		for _, g := range grid {
			db.Configure(g.cfg)
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("query %d under %s: %v\n%s", qi, g.name, err, q)
			}
			rows := exactRows(res)
			if base == nil {
				base = rows
				continue
			}
			if len(rows) != len(base) {
				t.Fatalf("query %d under %s: %d rows, baseline %d\n%s",
					qi, g.name, len(rows), len(base), q)
			}
			for i := range rows {
				if rows[i] != base[i] {
					t.Fatalf("query %d under %s: row %d differs\nbaseline: %v\ngot:      %v\n%s",
						qi, g.name, i, base[i], rows[i], q)
				}
			}
		}
	}
}

// TestVectorizedEqualsInterpreter sweeps filter shapes the kernel compiler
// supports (and a few it must fall back on) over randomized typed tables
// with NULLs, cross-kind comparisons, and joins/group-bys whose keys ride
// the columnar key encoder.
func TestVectorizedEqualsInterpreter(t *testing.T) {
	queries := []string{
		// Column/constant comparisons over every typed representation.
		`SELECT a, b, c FROM t1 WHERE a > 30`,
		`SELECT a FROM t1 WHERE b <= 12.5`,
		`SELECT c FROM t1 WHERE c = 'c03'`,
		`SELECT a, c FROM t1 WHERE c <> 'c05'`,
		`SELECT a FROM t1 WHERE ok`,
		`SELECT a FROM t1 WHERE NOT ok`,
		// Cross-kind: int column vs float constant (widened), kind mismatch.
		`SELECT a FROM t1 WHERE a = 7.0`,
		`SELECT a FROM t1 WHERE a > 6.5`,
		`SELECT a FROM t1 WHERE a = 'not-a-number'`,
		`SELECT a FROM t1 WHERE NOT (a < 'x')`,
		// Column/column comparisons, including int-vs-float.
		`SELECT a, b FROM t1 WHERE a < b`,
		`SELECT a FROM t1 WHERE a = a2`,
		// BETWEEN, IN, NOT IN with a NULL member, LIKE, IS NULL.
		`SELECT a FROM t1 WHERE a BETWEEN 10 AND 40`,
		`SELECT a FROM t1 WHERE b NOT BETWEEN -5.5 AND 20`,
		`SELECT c FROM t1 WHERE c IN ('c01', 'c02', 'c19')`,
		`SELECT a FROM t1 WHERE a IN (1, 2, 3.0, 60)`,
		`SELECT a FROM t1 WHERE a NOT IN (5, NULL, 9)`,
		`SELECT c FROM t1 WHERE c LIKE 'c0%'`,
		`SELECT c FROM t1 WHERE c NOT LIKE '%1'`,
		`SELECT a FROM t1 WHERE b IS NULL`,
		`SELECT a, b FROM t1 WHERE b IS NOT NULL AND b > 0`,
		// Boolean combinations with NULL-aware NOT pushdown.
		`SELECT a FROM t1 WHERE a > 10 AND (c = 'c01' OR b < 0)`,
		`SELECT a FROM t1 WHERE NOT (a > 10 AND b > 0)`,
		`SELECT a FROM t1 WHERE NOT (c = 'c02' OR b IS NULL)`,
		// Expressions the compiler must decline (arithmetic in the
		// predicate): falls back to closures, results still identical.
		`SELECT a FROM t1 WHERE a % 7 < 4`,
		`SELECT a FROM t1 WHERE b * 2 > a + 1`,
		// Joins and group-bys: keys are plain columns, so build/probe and
		// grouping use the columnar key encoder.
		`SELECT t1.a, t2.d, t1.b FROM t1 JOIN t2 ON t1.a = t2.k`,
		`SELECT t1.c, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.k`,
		`SELECT c, SUM(b), COUNT(*) FROM t1 GROUP BY c`,
		`SELECT a, c, SUM(b) FROM t1 WHERE a > 5 GROUP BY a, c`,
		// Filter above a join (no columnar provenance: closure path).
		`SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.k WHERE t2.w > 2`,
		// Compute projections: arithmetic and concat kernels over typed,
		// nullable vectors (int/float widening, NULL propagation).
		`SELECT a * 2 + b, b - a / 2.0, a * a FROM t1 WHERE a > 5`,
		`SELECT c || '-' || c, a FROM t1`,
		`SELECT a + b, a - a2, b * b FROM t1 WHERE ok`,
		// Modulo has no kernel: projection falls back to closures.
		`SELECT a % 5, b FROM t1 WHERE a > 10`,
		// Batch aggregation over computed arguments, and MIN/MAX over
		// string and bool vectors (dict and bitmap representations).
		`SELECT c, SUM(b * 2 + a), AVG(b - 1.5), COUNT(b), MIN(b), MAX(b + 0.5) FROM t1 GROUP BY c`,
		`SELECT c, MIN(c), MAX(c), COUNT(*) FROM t1 GROUP BY c`,
		`SELECT ok, SUM(a), MIN(ok), MAX(ok) FROM t1 GROUP BY ok`,
		// Post-join aggregation and projection: columnar provenance must
		// survive the hash join for the kernels to stay engaged.
		`SELECT t2.d, SUM(t1.b), COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
		`SELECT t2.d, SUM(t1.a + t2.w), AVG(t1.b) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
		`SELECT t1.a + t2.w, t1.c || '/' || t2.d FROM t1 JOIN t2 ON t1.a = t2.k`,
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE t1 (a INT, a2 INT, b FLOAT, c TEXT, ok BOOL)`)
		db.MustExec(`CREATE TABLE t2 (k INT, d TEXT, w FLOAT)`)
		n := 300 + rng.Intn(100)
		rows := make([][]any, 0, n)
		for i := 0; i < n; i++ {
			var b any
			if rng.Intn(8) == 0 {
				b = nil
			} else {
				b = rng.NormFloat64() * 30
			}
			var c any
			if rng.Intn(16) == 0 {
				c = nil
			} else {
				c = fmt.Sprintf("c%02d", rng.Intn(24))
			}
			rows = append(rows, []any{rng.Intn(64), rng.Intn(64), b, c, rng.Intn(2) == 0})
		}
		if err := db.Insert("t1", rows...); err != nil {
			t.Fatal(err)
		}
		rows = rows[:0]
		for i := 0; i < 40; i++ {
			rows = append(rows, []any{rng.Intn(80), fmt.Sprintf("d%02d", i), rng.Float64() * 10})
		}
		if err := db.Insert("t2", rows...); err != nil {
			t.Fatal(err)
		}
		checkVectorGrid(t, db, queries)
	}
}

// TestVectorizedFactQueries runs the grid over the sparse random fact table
// the optimizer properties use: expression-heavy filters and projections,
// a self-join on a computed key, ordered group-by, a window, and spreadsheet
// formulas mixing cell references, range aggregates and UPSERT, after an
// UPDATE whose SET and WHERE are themselves compiled expressions.
func TestVectorizedFactQueries(t *testing.T) {
	queries := []string{
		`SELECT r, p, t, s FROM f WHERE s * 2 + 1 > 50 AND p LIKE 'd%' OR t IN (1996, 1999, 2001)`,
		`SELECT upper(r) || '-' || p, s / 2.0 FROM f WHERE NOT (t BETWEEN 1997 AND 1999)`,
		`SELECT a.r, a.p, a.s + b.s FROM f a JOIN f b ON a.r = b.r AND a.p = b.p AND a.t = b.t - 1`,
		`SELECT r, p, sum(s), count(*), avg(s + 1) FROM f WHERE t >= 1996 GROUP BY r, p ORDER BY r, p`,
		`SELECT r, p, t, s, row_number() OVER (PARTITION BY r ORDER BY s DESC, p, t) FROM f ORDER BY r, p, t`,
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY(p, t) MEA(s) UPDATE
		 ( s['dvd', 2001] = s['dvd', 2000] * 1.2 + avg(s)['tv', 1995 < t < 2001],
		   s[*, 2002] = s[cv(p), 2001] + 1 )`,
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		 ( UPSERT s['all', 2003] = sum(s)[p != 'all', t = 2001] )`,
	}
	for seed := int64(0); seed < 4; seed++ {
		db := randomFactDB(t, rand.New(rand.NewSource(seed)))
		db.MustExec(`UPDATE f SET s = s * 1.5 + 1 WHERE p LIKE 'v%' AND t % 2 = 0`)
		checkVectorGrid(t, db, queries)
	}
}

// TestVectorizedAllNullAndEmpty covers the degenerate images: a column that
// is entirely NULL (KindNull representation, no vector storage), an empty
// table (zero chunks), and filters that select nothing.
func TestVectorizedAllNullAndEmpty(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE nt (a INT, z FLOAT, c TEXT)`)
	rows := make([][]any, 100)
	for i := range rows {
		rows[i] = []any{i, nil, fmt.Sprintf("s%d", i%5)} // z is all-null
	}
	if err := db.Insert("nt", rows...); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE empty (a INT, b TEXT)`)
	checkVectorGrid(t, db, []string{
		`SELECT a, z FROM nt WHERE z IS NULL`,
		`SELECT a FROM nt WHERE z IS NOT NULL`,
		`SELECT a FROM nt WHERE z > 0`,
		`SELECT a FROM nt WHERE z = 1 OR a < 10`,
		`SELECT a FROM nt WHERE NOT (z < 5)`,
		`SELECT c, COUNT(z), COUNT(*) FROM nt GROUP BY c`,
		`SELECT a FROM empty WHERE a > 0`,
		`SELECT a, b FROM empty`,
		`SELECT b, SUM(a) FROM empty GROUP BY b`,
		`SELECT a FROM nt WHERE a > 1000`, // non-empty scan, empty selection
		// Compute kernels over the all-null vector: arithmetic and every
		// aggregate must produce NULLs / zero counts identically.
		`SELECT a + z, z * 2.0, c || '-' FROM nt`,
		`SELECT c, SUM(z), AVG(z), MIN(z), MAX(z), COUNT(z) FROM nt GROUP BY c`,
		`SELECT b, SUM(a + 1) FROM empty GROUP BY b`,
	})
}

// TestVectorizedChunkStraddlingPartitions drives the spreadsheet clause over
// partitions whose rows interleave across every morsel boundary, so the
// columnar partition-key build must agree with the row path while assembling
// partitions from positions scattered over many chunks.
func TestVectorizedChunkStraddlingPartitions(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	// Round-robin inserts: each (r,p) partition's rows are maximally spread
	// out, so with MorselSize 16 every partition straddles every chunk.
	regions := []string{"west", "east", "north"}
	prods := []string{"tv", "vcr", "dvd"}
	rows := make([][]any, 0, len(regions)*len(prods)*12)
	for yr := 1990; yr < 2002; yr++ {
		for _, r := range regions {
			for _, p := range prods {
				rows = append(rows, []any{r, p, yr, float64(yr-1990)*1.5 + float64(len(r))})
			}
		}
	}
	if err := db.Insert("f", rows...); err != nil {
		t.Fatal(err)
	}
	checkVectorGrid(t, db, []string{
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( UPDATE s['tv',2001] = s['tv',1999] + s['tv',2000],
		   UPSERT s['all',2001] = s['tv',2001] + s['vcr',2001] + s['dvd',2001] )
		 ORDER BY r, p, t`,
		`SELECT r, p, t, s FROM f WHERE t >= 1995
		 SPREADSHEET PBY(r, p) DBY (t) MEA (s)
		 ( UPDATE s[2001] = s[2000] * 2 )
		 ORDER BY r, p, t`,
	})
}

// TestVectorizedDictOverflow pushes a string column past DictMaxEntries so
// its image abandons dictionary encoding for plain strings, then checks
// string predicates stay byte-identical on the plain-string kernel path.
func TestVectorizedDictOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE big (id INT, u TEXT)`)
	n := colstore.DictMaxEntries + 500
	batch := make([][]any, 0, 4096)
	for i := 0; i < n; i++ {
		var u any
		if i%101 == 0 {
			u = nil
		} else {
			u = fmt.Sprintf("u%06d", i)
		}
		batch = append(batch, []any{i, u})
		if len(batch) == cap(batch) || i == n-1 {
			if err := db.Insert("big", batch...); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	checkVectorGrid(t, db, []string{
		fmt.Sprintf(`SELECT id FROM big WHERE u = 'u%06d'`, colstore.DictMaxEntries+7),
		`SELECT id FROM big WHERE u LIKE 'u00001%'`,
		`SELECT id FROM big WHERE u IS NULL`,
		`SELECT id FROM big WHERE u > 'u065535' AND id < 66000`,
		// Concat and MIN/MAX over the plain (overflowed) string vector.
		`SELECT u || '!', id FROM big WHERE id < 300`,
		`SELECT MIN(u), MAX(u), COUNT(u), COUNT(*) FROM big`,
	})
}

// TestVectorizedNumericEdges pins the numeric normalization corners shared
// by kernels and the interpreter: NaN, infinities, and the integral-float
// boundary around MaxInt64.
func TestVectorizedNumericEdges(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE num (i INT, f FLOAT)`)
	rows := [][]any{
		{int64(math.MaxInt64), math.NaN()},
		{int64(math.MinInt64), math.Inf(1)},
		{int64(0), math.Inf(-1)},
		{int64(7), 7.0},
		{int64(-3), -2.5},
		{nil, 0.0},
		{int64(42), nil},
	}
	if err := db.Insert("num", rows...); err != nil {
		t.Fatal(err)
	}
	checkVectorGrid(t, db, []string{
		`SELECT i FROM num WHERE f > 0`,
		`SELECT i FROM num WHERE f < 0`,
		`SELECT i FROM num WHERE f = f`,
		`SELECT i, f FROM num WHERE i = f`,
		`SELECT i FROM num WHERE i > f`,
		`SELECT f FROM num WHERE f IN (7, 9223372036854775807)`,
		`SELECT i FROM num WHERE i BETWEEN -10 AND 10`,
		`SELECT i FROM num WHERE NOT (f >= 0)`,
		// Compute kernels on the edges: int64 wraparound (i + i at
		// MaxInt64), NaN/Inf arithmetic, int->float widening.
		`SELECT i + i, f * 2.0, i - 1 FROM num`,
		`SELECT i + f, f - f, f / 2.0 FROM num`,
		`SELECT SUM(i), SUM(f), AVG(f), MIN(f), MAX(f), MIN(i), MAX(i), COUNT(f) FROM num`,
	})
}

// TestVectorizedSpreadsheetBatchScan drives the core engine's batch partition
// scan (vecScanFeed): aggregate formulas whose qualifiers force a scan
// (ranges, stars) over partitions larger than vecScanMinRows, including a
// predicate qualifier that must fall back to the row matcher, and degenerate
// measures (all-NULL, NaN/Inf) where bit-exact accumulation order matters.
func TestVectorizedSpreadsheetBatchScan(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	// 4 products x 26 years = 104 rows per PBY(r) partition, past the
	// vecScanMinRows=64 gate on both partitions.
	rows := make([][]any, 0, 2*4*26)
	for _, r := range []string{"east", "west"} {
		for pi, p := range []string{"tv", "vcr", "dvd", "amp"} {
			for yr := 1980; yr < 2006; yr++ {
				rows = append(rows, []any{r, p, yr, float64((yr-1980)*(pi+1)) * 0.25})
			}
		}
	}
	if err := db.Insert("f", rows...); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE g (r TEXT, t INT, s FLOAT)`)
	rows = rows[:0]
	for i := 0; i < 80; i++ {
		rows = append(rows, []any{"nul", i, nil}) // all-NULL measure partition
		var s float64
		switch i % 5 {
		case 0:
			s = math.NaN()
		case 1:
			s = math.Inf(1)
		case 2:
			s = math.Inf(-1)
		default:
			s = float64(i) * 0.5
		}
		rows = append(rows, []any{"nan", i, s})
	}
	if err := db.Insert("g", rows...); err != nil {
		t.Fatal(err)
	}
	checkVectorGrid(t, db, []string{
		// Point+range, star-star, and per-aggregate coverage (sum, count,
		// avg, min, max, slope) on the batch scan path. Ranges are wider
		// than maxRangeProbe so they stay in scan mode instead of unfolding
		// into point probes; the narrow range on the last formula checks the
		// probe and scan paths coexist in one statement.
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( UPSERT s['agg', 3000] = sum(s)['tv', 1700 <= t <= 1999],
		   UPSERT s['agg', 3001] = count(s)[*, *],
		   UPSERT s['agg', 3002] = avg(s)['dvd', *],
		   UPSERT s['agg', 3003] = max(s)[*, 1000 < t < 2000],
		   UPSERT s['agg', 3004] = min(s)['vcr', *],
		   UPSERT s['agg', 3005] = slope(s, t)['tv', *],
		   UPSERT s['agg', 3006] = sum(s)['amp', 1990 <= t <= 1999] )
		 ORDER BY r, p, t`,
		// Predicate qualifier: no declarative descriptor, so the batch scan
		// declines and the row matcher runs — results must not move.
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( UPSERT s['pq', 3100] = sum(s)[p <> 'pq', t < 3000] )
		 ORDER BY r, p, t`,
		// Existential targets: s[*, ...] builds one instance per target row
		// with a cv(p) point qualifier; each goes through scanFeed.
		`SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( s[*, 3200] = avg(s)[cv(p), 1990 <= t <= 2001] )
		 ORDER BY r, p, t`,
		// Degenerate measures: all-NULL partition and NaN/Inf accumulation.
		`SELECT r, t, s FROM g
		 SPREADSHEET PBY(r) DBY (t) MEA (s)
		 ( UPSERT s[9000] = sum(s)[-1000 <= t <= 100],
		   UPSERT s[9001] = avg(s)[-1000 <= t < 100],
		   UPSERT s[9002] = min(s)[0 <= t <= 1000],
		   UPSERT s[9003] = max(s)[-500 <= t < 50],
		   UPSERT s[9004] = count(s)[0 <= t <= 500] )
		 ORDER BY r, t`,
	})
}

// TestExplainVectorizedAnnotation checks EXPLAIN advertises kernel
// compilation and that the ablation knob turns the annotation off.
func TestExplainVectorizedAnnotation(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE e (a INT, c TEXT)`)
	db.MustExec(`INSERT INTO e VALUES (1, 'x'), (2, 'y')`)

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(`SELECT a FROM e WHERE a > 1 AND c LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=yes") {
		t.Errorf("supported predicate lacks vectorized=yes:\n%s", out)
	}
	// Arithmetic predicates have no kernel: annotation must say no.
	out, err = db.Explain(`SELECT a FROM e WHERE a % 2 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no") {
		t.Errorf("unsupported predicate lacks vectorized=no:\n%s", out)
	}
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedExec: true}}})
	out, err = db.Explain(`SELECT a FROM e WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "vectorized=yes") {
		t.Errorf("ablated plan still advertises vectorized=yes:\n%s", out)
	}
}

// TestVectorizedRules drives the batch rule engine (formula kernels, bulk
// frame probes, columnar writeback) against the per-cell interpreter across
// the whole ablation grid: left-side FOR loops, UPSERT inserts, existential
// formulas with predicate qualifiers, aggregate reads, an all-NULL measure,
// and an ITERATE model that must stay on the row path.
func TestVectorizedRules(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE fr (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT, z FLOAT)`)
	rows := make([][]any, 0, 2*4*30)
	for _, r := range []string{"east", "west"} {
		for pi, p := range []string{"tv", "vcr", "dvd", "amp"} {
			for yr := 1980; yr < 2010; yr++ {
				rows = append(rows, []any{r, p, yr, float64(yr-1979)*1.5 + float64(pi)*7.25, 0.0, nil})
			}
		}
	}
	if err := db.Insert("fr", rows...); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE it (t INT, s FLOAT)`)
	rows = rows[:0]
	for i := 0; i < 80; i++ {
		rows = append(rows, []any{i, float64(1000 + i)})
	}
	if err := db.Insert("it", rows...); err != nil {
		t.Fatal(err)
	}
	const head = `SELECT r, p, t, s, u, z FROM fr SPREADSHEET PBY(r) DBY (p, t) MEA (s, u, z) `
	const tail = ` ORDER BY r, p, t`
	checkVectorGrid(t, db, []string{
		// Existential formulas: stars, ranges, predicate qualifiers.
		head + `( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5 + s[cv(p), cv(t) - 1] )` + tail,
		head + `( UPDATE u['dvd', 1990 <= t <= 2005] = s[cv(p), cv(t)] + 100,
		          UPDATE u[p IN ('tv','vcr'), t > 1990] = s[cv(p), cv(t)] / 2 - 1 )` + tail,
		// Left-side FOR loops: UPDATE over the whole grid, UPSERT inserting
		// new cells that read existing ones through the bulk probe.
		head + `( UPDATE u[FOR p IN ('tv','vcr','dvd','amp'), FOR t FROM 1980 TO 2009] = s[cv(p), cv(t)] * 1.01 + 1 )` + tail,
		head + `( UPSERT u[FOR p IN ('tv','vcr'), FOR t FROM 2010 TO 2030] = s[cv(p), cv(t) - 30] * 2 )` + tail,
		// Aggregate reads: a batchable broadcast (min forces the multi-scan
		// engine) and a per-target aggregate that must fall back.
		head + `( UPDATE u['tv', t > 2000] = s[cv(p), cv(t)] - min(s)['tv', 1980 <= t <= 1999] )` + tail,
		head + `( UPDATE u[*, *] = avg(s)[cv(p), 1990 <= t <= 1999] )` + tail,
		// Reads from the all-NULL measure flow NULL through the kernels.
		head + `( UPDATE u[*, *] = z[cv(p), cv(t)] )` + tail,
		// ITERATE models never batch; the grid still must agree.
		`SELECT t, s FROM it SPREADSHEET DBY (t) MEA (s) ITERATE (4)
		 ( s[0] = s[0] / 2 + s[1] * 0.001 ) ORDER BY t`,
	})
}

// TestBucketBatchMatchesRowPath holds the level-major rule loop to the
// per-cell oracle over 1,000 partitions of 1–20 rows, where an existential
// rule runs once over every partition of a first-level bucket: main-sheet
// reads probe each row's own partition, reference-sheet reads — nested in a
// main-sheet qualifier, sheet-qualified, keyed by a PBY column, by 1.0 for a
// stored 1 — become gathers. Every statement must give byte-identical rows,
// or the identical error, with rule batching on and off, serially and with 4
// PEs and workers, over 1, 3 and 16 buckets.
func TestBucketBatchMatchesRowPath(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE bb (r INT, p TEXT, t INT, s FLOAT, d1 FLOAT, d2 FLOAT, u FLOAT, z FLOAT)`)
	db.MustExec(`CREATE TABLE bpar (p TEXT, par TEXT, w FLOAT)`)
	db.MustExec(`CREATE TABLE bprev (t FLOAT, prev INT)`)
	db.MustExec(`CREATE TABLE bpart (r INT, k FLOAT)`)
	// Partitions a < b share a bucket at every bucket count of the grid: F1
	// of the division statement fails only in b, F2 only in a.
	bucketOf := func(r, n int) int { return core.HashValue(types.NewInt(int64(r)), n) }
	a, b := 5, 6
	for bucketOf(b, 3) != bucketOf(a, 3) || bucketOf(b, 16) != bucketOf(a, 16) {
		b++
	}
	var rows [][]any
	for r := 0; r < 1000; r++ {
		n := 1 + (r*7+3)%20
		for i := 0; i < n; i++ {
			// Four products per t: p0..p3 in even partitions, p4..p7 in odd.
			var s any = float64(r%13) + float64(i)*0.5 + 0.25
			if (r+i)%17 == 0 {
				s = nil
			}
			d1, d2 := float64(1+i), 2.0
			if r == b {
				d1 = 0
			}
			if r == a {
				d2 = 0
			}
			rows = append(rows, []any{r, fmt.Sprintf("p%d", i%4+4*(r%2)), 1 + i/4, s, d1, d2, 0.0, 0.0})
		}
		if r%11 != 0 { // the rest miss the PBY-keyed sheet
			if err := db.Insert("bpart", []any{r, float64(r%5) * 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Insert("bb", rows...); err != nil {
		t.Fatal(err)
	}
	// Parents within a partition's products: p2's is NULL, its weight NULL;
	// p7 has no entry at all.
	db.MustExec(`INSERT INTO bpar VALUES ('p0','p1',1.5), ('p1','p2',2), ('p2',NULL,NULL), ('p3','p0',0.5),
		('p4','p5',1), ('p5','p6',3), ('p6','p4',0.25)`)
	// Keyed 1.0, 2.0, ... while t holds 1, 2, ...: the same cells.
	db.MustExec(`INSERT INTO bprev VALUES (2.0, 1), (3.0, 2), (4.0, 3), (5.0, 4)`)

	const head = `SELECT r, p, t, s, u, z FROM bb SPREADSHEET
		REFERENCE bp ON (SELECT p, par, w FROM bpar) DBY (p) MEA (par, w)
		REFERENCE bt ON (SELECT t, prev FROM bprev) DBY (t) MEA (prev)
		REFERENCE br ON (SELECT r, k FROM bpart) DBY (r) MEA (k)
		PBY (r) DBY (p, t) MEA (s, d1, d2, u, z) `
	const tail = ` ORDER BY r, p, t`
	batched := []string{
		// Nested reads, with a miss (p7) and a NULL parent (p2).
		`RULES UPDATE ( u[*, *] = s[cv(p), cv(t)] / s[par[cv(p)], cv(t)] )`,
		// A NULL reference measure, and a sheet-qualified nested read.
		`RULES UPDATE ( u[*, *] = w[cv(p)] * s[cv(p), cv(t)] + bp.w[par[cv(p)]] )`,
		// 1 vs 1.0: an INT cv(t) and a FLOAT cv(t) * 1.0 read the same key.
		`RULES UPDATE ( u[*, t > 1] = s[cv(p), prev[cv(t)]] + s[cv(p), bt.prev[cv(t) * 1.0]] )`,
		// A reference keyed by cv() of the PBY column.
		`RULES UPDATE ( u[*, *] = s[cv(p), cv(t)] * k[cv(r)] )`,
		// One level, one rule batched and one per cell (CASE has no kernel).
		`RULES UPDATE ( u[*, *] = s[par[cv(p)], cv(t)] * 2,
			z[*, *] = CASE WHEN s[cv(p), cv(t)] > 5 THEN 1 ELSE 0 END )`,
	}
	// Division by zero in F1 of partition b and in F2 of partition a, which
	// comes first: level → rule → frame reports F1.
	const divide = `RULES UPDATE ( F1: u[*, *] = s[cv(p), cv(t)] / d1[cv(p), cv(t)],
		F2: z[*, *] = s[cv(p), cv(t)] / d2[cv(p), cv(t)] )`

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	for _, rules := range batched[:4] {
		plan, err := db.Explain(head + rules + tail)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized=yes") || strings.Contains(plan, "vectorized=no") {
			t.Fatalf("want every rule batched:\n%s", plan)
		}
	}
	for _, rules := range append(batched, divide) {
		q := head + rules + tail
		var base []string
		var baseName string
		for _, pe := range []int{1, 4} {
			for _, buckets := range []int{1, 3, 16} {
				for _, off := range []bool{true, false} {
					name := fmt.Sprintf("parallel=workers=%d/buckets=%d/rules-off=%v", pe, buckets, off)
					db.Configure(sqlsheet.Config{Parallel: pe, Workers: pe, Ablate: sqlsheet.Ablation{
						DisablePlanCache: true,
						Engine:           core.Ablation{Buckets: buckets, DisableVectorizedRules: off},
					}})
					var got []string
					if res, err := db.Query(q); err != nil {
						got = []string{"error: " + err.Error()}
					} else {
						got = exactRows(res)
					}
					if base == nil {
						base, baseName = got, name
						continue
					}
					if len(got) != len(base) {
						t.Fatalf("%s: %d rows, %s %d\n%s", name, len(got), baseName, len(base), q)
					}
					for i := range got {
						if got[i] != base[i] {
							t.Fatalf("%s: row %d differs from %s\n%s: %q\n%s: %q\n%s", name, i, baseName, baseName, base[i], name, got[i], q)
						}
					}
				}
			}
		}
		if rules == divide && base[0] != "error: f1: division by zero" {
			t.Fatalf("division statement: %q, want F1's error", base[0])
		}
		if rules != divide && len(base) < 10000 {
			t.Fatalf("only %d rows\n%s", len(base), q)
		}
	}
}

// TestVectorizedRulesDictOverflow runs an existential string-measure formula
// over a partition large enough that the frame image's dictionary overflows
// into plain strings, exercising the bulk probe and columnar writeback on
// the overflowed representation.
func TestVectorizedRulesDictOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE bigr (grp INT, id INT, u TEXT, v TEXT)`)
	n := colstore.DictMaxEntries + 500
	batch := make([][]any, 0, 4096)
	for i := 0; i < n; i++ {
		var u any
		if i%101 == 0 {
			u = nil
		} else {
			u = fmt.Sprintf("u%06d", i)
		}
		batch = append(batch, []any{0, i, u, "x"})
		if len(batch) == cap(batch) || i == n-1 {
			if err := db.Insert("bigr", batch...); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	checkVectorGrid(t, db, []string{
		`SELECT grp, id, u, v FROM bigr
		 SPREADSHEET PBY(grp) DBY (id) MEA (u, v)
		 ( UPDATE v[*] = u[cv(id)] || '!' )
		 ORDER BY id`,
	})
}

// TestExplainVectorizedRules checks EXPLAIN's per-rule vectorized= notes:
// batchable formulas advertise yes, fallbacks name their reason, and the
// ablation knob rewrites yes to no(disabled) without masking real reasons.
func TestExplainVectorizedRules(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE fe (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT)`)
	db.MustExec(`INSERT INTO fe VALUES ('w','tv',2000,1,0), ('w','tv',2001,2,0)`)
	const q = `SELECT r, p, t, s, u FROM fe SPREADSHEET PBY(r) DBY (p, t) MEA (s, u)
		( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5,
		  UPDATE u[*, t > 2000] = avg(s)[cv(p), 1990 <= t <= 1999],
		  UPDATE s['tv', 2001] = s['tv', 2000] * 2 )`

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vectorized=yes", "vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN lacks %s:\n%s", want, out)
		}
	}
	it, err := db.Explain(`SELECT t, s FROM fe SPREADSHEET DBY (t) MEA (s) ITERATE (2) ( s[2000] = s[2000] / 2 )`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(it, "vectorized=no(iterate)") {
		t.Errorf("ITERATE rule lacks vectorized=no(iterate):\n%s", it)
	}

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedRules: true}}})
	out, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no(disabled)") {
		t.Errorf("ablated rule plan lacks vectorized=no(disabled):\n%s", out)
	}
	for _, want := range []string{"vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablated EXPLAIN masks real fallback %s:\n%s", want, out)
		}
	}
}

// dmlGridConfigs is the grid UPDATE and DELETE are held to: the statement
// finds its rows by selection kernel (vectorized execution on) or by the
// per-row closure (off, the reference), at one worker and at four, with a
// 16-row morsel so that small fixtures still split.
func dmlGridConfigs() []struct {
	name string
	cfg  sqlsheet.Config
} {
	var out []struct {
		name string
		cfg  sqlsheet.Config
	}
	for _, off := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			out = append(out, struct {
				name string
				cfg  sqlsheet.Config
			}{fmt.Sprintf("vec-off=%v/workers=%d", off, workers), sqlsheet.Config{Workers: workers, Ablate: sqlsheet.Ablation{
				DisablePlanCache: true,
				Exec:             exec.Ablation{MorselSize: 16},
				Engine:           core.Ablation{DisableVectorizedExec: off},
			}}})
		}
	}
	return out
}

// dmlTranscript runs script against a fresh database built by setup and
// records, per statement, the affected-row count (or the error, or a query's
// rows), followed by the whole table in storage order.
func dmlTranscript(t *testing.T, cfg sqlsheet.Config, setup func(*sqlsheet.DB), table string, script []string) []string {
	t.Helper()
	db := sqlsheet.Open()
	db.Configure(cfg)
	setup(db)
	var out []string
	for _, stmt := range script {
		res, err := db.Exec(stmt)
		if err != nil {
			out = append(out, stmt+" → error: "+err.Error())
			continue
		}
		out = append(out, stmt+" → "+strings.Join(exactRows(res), " | "))
	}
	res, err := db.Query(`SELECT * FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, exactRows(res)...)
}

func checkDMLGrid(t *testing.T, setup func(*sqlsheet.DB), table string, script []string) {
	t.Helper()
	var base []string
	for _, g := range dmlGridConfigs() {
		got := dmlTranscript(t, g.cfg, setup, table, script)
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%s under %s: %d transcript lines, reference %d", table, g.name, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("%s under %s: line %d differs\nreference: %q\ngot:       %q", table, g.name, i, base[i], got[i])
			}
		}
	}
}

// TestDMLGrid: UPDATE and DELETE leave byte-identical tables and report
// identical counts whether they find their rows by kernel or by closure, over
// the images the scan grid uses — NaN and infinities, an all-NULL column, a
// mixed-kind (boxed) column, an overflowed dictionary — with the statements
// in between that change an image's representation under the next one
// (first NULL, first value of another kind, a string new to the dictionary),
// statements that match nothing or everything, and predicates that only the
// closure can evaluate or that fail half way down the table.
func TestDMLGrid(t *testing.T) {
	t.Run("numeric-edges", func(t *testing.T) {
		checkDMLGrid(t, func(db *sqlsheet.DB) {
			db.MustExec(`CREATE TABLE num (i INT, f FLOAT)`)
			if err := db.Insert("num",
				[]any{int64(math.MaxInt64), math.NaN()}, []any{int64(math.MinInt64), math.Inf(1)},
				[]any{int64(0), math.Inf(-1)}, []any{int64(7), 7.0}, []any{int64(-3), -2.5},
				[]any{nil, 0.0}, []any{int64(42), nil}, []any{int64(8), 1e300}, []any{int64(9), -0.0}); err != nil {
				t.Fatal(err)
			}
		}, "num", []string{
			`UPDATE num SET f = f + 1 WHERE f > 0`,
			`UPDATE num SET i = 0 WHERE f = f`,
			`SELECT i FROM num WHERE f >= 1`,
			`DELETE FROM num WHERE f < 0`,
			`INSERT INTO num VALUES (11, 0.5), (12, NULL)`,
			`UPDATE num SET f = NULL WHERE i = 11`,
			`UPDATE num SET i = i + 1`,
			`DELETE FROM num WHERE i > f`,
			`DELETE FROM num WHERE i IS NULL OR f IS NULL`,
			`DELETE FROM num WHERE i = 12345`,
			`UPDATE num SET f = 1 / 0.0 WHERE i BETWEEN 0 AND 5`,
			`DELETE FROM num`,
			`INSERT INTO num VALUES (1, 1.5)`,
		})
	})
	t.Run("all-null-column", func(t *testing.T) {
		checkDMLGrid(t, func(db *sqlsheet.DB) {
			db.MustExec(`CREATE TABLE nt (a INT, z FLOAT, c TEXT)`)
			rows := make([][]any, 100)
			for i := range rows {
				rows[i] = []any{i, nil, fmt.Sprintf("s%d", i%5)}
			}
			if err := db.Insert("nt", rows...); err != nil {
				t.Fatal(err)
			}
		}, "nt", []string{
			`UPDATE nt SET a = a + 1000 WHERE z IS NULL AND c = 's1'`,
			`UPDATE nt SET z = 1.5 WHERE a < 10`,
			`SELECT c, COUNT(z) FROM nt GROUP BY c`,
			`DELETE FROM nt WHERE z IS NULL AND c = 's2'`,
			`UPDATE nt SET c = 'fresh' WHERE c IN ('s3', 's4') AND a > 50`,
			`UPDATE nt SET c = NULL WHERE a = 3`,
			`DELETE FROM nt WHERE c IS NULL`,
			`UPDATE nt SET a = a * 2 WHERE z IS NOT NULL`,
			`DELETE FROM nt WHERE a > 100000`,
			`UPDATE nt SET a = 1 WHERE c = 'nope'`,
			`UPDATE nt SET z = NULL`,
			`DELETE FROM nt WHERE c LIKE 'f%' OR NOT (a < 1000)`,
		})
	})
	t.Run("mixed-kinds", func(t *testing.T) {
		checkDMLGrid(t, func(db *sqlsheet.DB) {
			if err := db.CreateTable("mixed", sqlsheet.Column{Name: "x"}, sqlsheet.Column{Name: "y"}); err != nil {
				t.Fatal(err)
			}
			vals := []any{1, 2.5, "a", true, nil, 7, "b", 3.0, false, 40, "a", nil}
			rows := make([][]any, 0, 60)
			for i := 0; i < 60; i++ {
				rows = append(rows, []any{vals[i%len(vals)], i % 7})
			}
			if err := db.Insert("mixed", rows...); err != nil {
				t.Fatal(err)
			}
		}, "mixed", []string{
			`UPDATE mixed SET y = 'str' WHERE x > 3`,
			`DELETE FROM mixed WHERE x = 'a'`,
			`UPDATE mixed SET x = 2.5 WHERE y IS NULL OR x IS NULL`,
			`DELETE FROM mixed WHERE x < y`,
			`UPDATE mixed SET y = x WHERE y = 3`,
			// Fails at the first row whose x is not a number, on both paths
			// (no kernel for arithmetic), and leaves the table untouched.
			`UPDATE mixed SET y = 0 WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x IN (1, 'b', TRUE)`,
		})
	})
	t.Run("closure-only-predicates", func(t *testing.T) {
		checkDMLGrid(t, func(db *sqlsheet.DB) {
			db.MustExec(`CREATE TABLE t1 (a INT, b FLOAT, c TEXT)`)
			db.MustExec(`CREATE TABLE t2 (k INT)`)
			rng := rand.New(rand.NewSource(4))
			rows := make([][]any, 200)
			for i := range rows {
				rows[i] = []any{rng.Intn(64), rng.NormFloat64() * 30, fmt.Sprintf("c%02d", rng.Intn(24))}
			}
			if err := db.Insert("t1", rows...); err != nil {
				t.Fatal(err)
			}
			db.MustExec(`INSERT INTO t2 VALUES (3), (9), (27), (28)`)
		}, "t1", []string{
			`DELETE FROM t1 WHERE a IN (SELECT k FROM t2)`,
			`UPDATE t1 SET b = 0 WHERE a % 7 < 4 AND c < 'c12'`,
			`UPDATE t1 SET c = c || '!' WHERE a > (SELECT MAX(k) FROM t2) AND c LIKE 'c0%'`,
			`UPDATE t1 SET a = a + 1, b = b * 2 WHERE c = 'c03' OR c = 'c04!'`,
			`DELETE FROM t1 WHERE b * 2 > a + 1`,
			`DELETE FROM t1 WHERE c NOT LIKE '%!' AND a BETWEEN 10 AND 30`,
		})
	})
	t.Run("dict-overflow", func(t *testing.T) {
		if testing.Short() {
			t.Skip("large table")
		}
		checkDMLGrid(t, func(db *sqlsheet.DB) {
			db.MustExec(`CREATE TABLE big (id INT, u TEXT)`)
			n := colstore.DictMaxEntries - 200
			rows := make([][]any, n)
			for i := range rows {
				rows[i] = []any{i, fmt.Sprintf("u%06d", i)}
				if i%101 == 0 {
					rows[i][1] = nil
				}
			}
			if err := db.Insert("big", rows...); err != nil {
				t.Fatal(err)
			}
		}, "big", []string{
			// Still a dictionary; the UPDATE pushes it past the cap.
			`UPDATE big SET u = 'dup' WHERE id < 300`,
			`UPDATE big SET u = u || '!' WHERE id >= 300 AND id < 1500`,
			`DELETE FROM big WHERE u LIKE 'u00001%'`,
			`UPDATE big SET u = 'u000000' WHERE u > 'u065000'`,
			`DELETE FROM big WHERE u IS NULL`,
			`DELETE FROM big WHERE u = 'dup' OR u IN ('u000400!', 'u065001')`,
		})
	})
}
