// Benchmarks regenerating the paper's evaluation (§6): one benchmark family
// per figure/table. The cmd/experiments binary prints the same series as
// paper-style relative-units tables; these benches put each point under
// testing.B for precise measurement.
//
//	go test -bench=. -benchmem
package sqlsheet_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/experiments"
	"sqlsheet/internal/plan"
)

// benchScale keeps full -bench=. runs in seconds; use cmd/experiments
// -scale default|large for bigger datasets.
var benchScale = experiments.SmallScale

func setupBench(b *testing.B, cfg sqlsheet.Config) *sqlsheet.DB {
	b.Helper()
	db, _, err := experiments.Setup(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	// Benchmarks repeat one statement b.N times; with the serving-path cache
	// warm they would measure a cache probe, not the engine.
	// BenchmarkRepeatedQuery measures the cache itself.
	cfg.Ablate.DisablePlanCache = true
	db.Configure(cfg)
	return db
}

func runQuery(b *testing.B, db *sqlsheet.DB, q string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 probes the time_dt mapping of the paper's Table 1.
func BenchmarkTable1(b *testing.B) {
	db, _, err := experiments.Setup(sqlsheet.APBScale{Years: 2, Customers: 1, Channels: 1})
	if err != nil {
		b.Fatal(err)
	}
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	runQuery(b, db, `SELECT m, m_yago, m_qago FROM time_dt WHERE m IN ('1999-01','1999-02','1999-03')`)
}

// BenchmarkFig2 measures query S5 under each predicate-pushing strategy at
// representative selectivities (paper Fig. 2).
func BenchmarkFig2(b *testing.B) {
	variants := []struct {
		name string
		plan plan.Ablation
	}{
		{"no-pushing", plan.Ablation{DisableSheetPush: true}},
		{"extended", plan.Ablation{Push: sqlsheet.PushExtended}},
		{"unfold", plan.Ablation{Push: sqlsheet.PushUnfold}},
		{"subquery-nl", plan.Ablation{Push: sqlsheet.PushRefSubquery, ForceJoin: sqlsheet.JoinNestedLoop}},
		{"subquery-hash", plan.Ablation{Push: sqlsheet.PushRefSubquery, ForceJoin: sqlsheet.JoinHash}},
	}
	for _, sel := range []float64{0.004, 0.012} {
		db, _, err := experiments.Setup(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		base, err := experiments.BaseProducts(db)
		if err != nil {
			b.Fatal(err)
		}
		k := int(sel*float64(len(base)) + 0.5)
		if k < 1 {
			k = 1
		}
		q := experiments.S5Query(3, base[:k])
		for _, v := range variants {
			b.Run(fmt.Sprintf("sel=%g/%s", sel, v.name), func(b *testing.B) {
				db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Plan: v.plan}})
				runQuery(b, db, q)
			})
		}
	}
}

// BenchmarkFig3 compares the spreadsheet formulation against the ANSI
// N-self-join equivalent (paper Fig. 3; break-even ≈ 3 rules).
func BenchmarkFig3(b *testing.B) {
	db := setupBench(b, sqlsheet.Config{})
	for _, n := range []int{1, 3, 8, 14} {
		b.Run(fmt.Sprintf("rules=%d/spreadsheet", n), func(b *testing.B) {
			runQuery(b, db, experiments.S5Query(n, nil))
		})
		b.Run(fmt.Sprintf("rules=%d/self-joins", n), func(b *testing.B) {
			runQuery(b, db, experiments.S5JoinQuery(n, nil))
		})
	}
}

// BenchmarkFig4Formulas measures scaling with the number of formulas
// (paper Fig. 4: near-linear).
func BenchmarkFig4Formulas(b *testing.B) {
	db := setupBench(b, sqlsheet.Config{})
	for _, n := range []int{1, 2, 4, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runQuery(b, db, experiments.S5Query(n, nil))
		})
	}
}

// BenchmarkFig4Parallel measures partition-parallel execution across PE
// counts (paper: ~80% parallel efficiency at 12 PEs).
func BenchmarkFig4Parallel(b *testing.B) {
	q := experiments.S5Query(6, nil)
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop=%d", dop), func(b *testing.B) {
			db := setupBench(b, sqlsheet.Config{Parallel: dop, Ablate: sqlsheet.Ablation{Engine: core.Ablation{Buckets: dop * 4}}})
			runQuery(b, db, q)
		})
	}
}

// BenchmarkFig5Memory sweeps the access-structure budget as a percentage of
// the largest first-level partition (paper Fig. 5: flat while it fits,
// degrading toward nested-loop behaviour below ~30%).
func BenchmarkFig5Memory(b *testing.B) {
	db, _, err := experiments.Setup(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	res, err := db.Query(`SELECT c, h, t, COUNT(*) n FROM apb_cube GROUP BY c, h, t ORDER BY n DESC LIMIT 1`)
	if err != nil {
		b.Fatal(err)
	}
	largest := res.Rows[0][3].Int() * 260
	q := experiments.S5Query(1, nil)
	// SQLSHEET_SYNC_SPILL=1 reverts to synchronous eviction/reload for the
	// async-spill ablation described in EXPERIMENTS.md (Fig. 5 re-run).
	syncSpill := os.Getenv("SQLSHEET_SYNC_SPILL") != ""
	for _, pct := range []int{30, 60, 100, 120} {
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			db.Configure(sqlsheet.Config{
				MemoryBudget: largest * int64(pct) / 100, SpillDir: b.TempDir(),
				Ablate: sqlsheet.Ablation{
					DisablePlanCache: true,
					Exec:             exec.Ablation{DisableAsyncSpill: syncSpill},
					Engine:           core.Ablation{Buckets: 8},
				},
			})
			runQuery(b, db, q)
		})
	}
}

// BenchmarkAblation quantifies an execution-level design choice DESIGN.md
// calls out: the integer-range probe unfolding (the paper's F1
// transformation).
func BenchmarkAblation(b *testing.B) {
	// A level of aggregate-heavy point formulas over the electronics fact
	// table exercises the optimization.
	mk := func(cfg sqlsheet.Config) *sqlsheet.DB {
		db := sqlsheet.Open()
		cfg.Ablate.DisablePlanCache = true
		db.Configure(cfg)
		db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
		for _, r := range []string{"w", "e"} {
			for _, p := range []string{"dvd", "vcr", "tv"} {
				// A long history makes partition scans expensive relative
				// to the ~10-probe unfolded ranges.
				for ti := 1000; ti <= 2001; ti++ {
					if err := db.Insert("f", []any{r, p, ti, float64(ti % 97)}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		return db
	}
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		(
		  s['dvd',2002] = sum(s)['dvd', 1990 <= t <= 2001],
		  s['vcr',2002] = avg(s)['vcr', 1990 <= t <= 2001],
		  s['tv', 2002] = sum(s)['tv', 1990 <= t <= 2001],
		  s['dvd',2003] = s['dvd',2002] + sum(s)['dvd', 1980 <= t <= 2001],
		  s['vcr',2003] = s['vcr',2002] + sum(s)['vcr', 1980 <= t <= 2001]
		)`
	cases := []struct {
		name   string
		engine core.Ablation
	}{
		{"full", core.Ablation{}},
		{"no-range-probe", core.Ablation{DisableRangeProbe: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := mk(sqlsheet.Config{Ablate: sqlsheet.Ablation{Engine: c.engine}})
			runQuery(b, db, q)
		})
	}
}

// BenchmarkWindowVsSpreadsheet compares the two OLAP mechanisms of the
// paper's §1 on a prior-period ratio: the ANSI window-function formulation
// (LAG) against the spreadsheet formulation (cv(t)-1). Beyond-paper
// comparison; both return identical values (TestWindowEqualsSpreadsheet...).
func BenchmarkWindowVsSpreadsheet(b *testing.B) {
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	db.MustExec(`CREATE TABLE wf (g INT, t INT, s FLOAT)`)
	for g := 0; g < 200; g++ {
		for t := 0; t < 40; t++ {
			if err := db.Insert("wf", []any{g, t, float64((g*31+t*7)%97 + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("window-lag", func(b *testing.B) {
		runQuery(b, db, `SELECT g, t, s / lag(s) OVER (PARTITION BY g ORDER BY t) ratio FROM wf`)
	})
	b.Run("spreadsheet-cv", func(b *testing.B) {
		runQuery(b, db, `SELECT g, t, ratio FROM
			(SELECT g, t, s, ratio FROM wf
			 SPREADSHEET PBY(g) DBY (t) MEA (s, ratio) UPDATE
			 ( ratio[*] = s[cv(t)] / s[cv(t)-1] )) v`)
	})
}

// parallelBenchDB builds a synthetic star-schema pair big enough to cross
// the morsel threshold: a fact table joined to a small dimension. Sized so a
// full -bench run stays in seconds while the parallel paths dominate.
func parallelBenchDB(b *testing.B, workers int) *sqlsheet.DB {
	b.Helper()
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Workers: workers, Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	db.MustExec(`CREATE TABLE fact (k INT, g INT, v FLOAT)`)
	db.MustExec(`CREATE TABLE dim (k INT, name TEXT, w FLOAT)`)
	const nFact, nDim, nGroups = 120000, 512, 1024
	rows := make([][]any, 0, nFact)
	for i := 0; i < nFact; i++ {
		rows = append(rows, []any{i % nDim, i % nGroups, float64(i%997) * 0.5})
	}
	if err := db.Insert("fact", rows...); err != nil {
		b.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < nDim; i++ {
		rows = append(rows, []any{i, fmt.Sprintf("d%03d", i), float64(i) * 1.25})
	}
	if err := db.Insert("dim", rows...); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkParallelJoin measures the morsel-driven hash join (partitioned
// build + parallel probe). The worker pool follows GOMAXPROCS, so
//
//	go test -bench ParallelJoin -cpu 1,2,4
//
// sweeps the operator degree of parallelism on identical work.
func BenchmarkParallelJoin(b *testing.B) {
	db := parallelBenchDB(b, runtime.GOMAXPROCS(0))
	runQuery(b, db, `SELECT d.name, f.v * d.w FROM fact f JOIN dim d ON f.k = d.k WHERE f.v > 10`)
}

// BenchmarkParallelGroupBy measures morsel-parallel partial aggregation with
// merge (SUM/COUNT/AVG are algebraic, so partials combine). Sweep with
// -cpu 1,2,4 as above.
func BenchmarkParallelGroupBy(b *testing.B) {
	db := parallelBenchDB(b, runtime.GOMAXPROCS(0))
	runQuery(b, db, `SELECT g, SUM(v), COUNT(*), AVG(v) FROM fact GROUP BY g`)
}

// BenchmarkAccessStructure isolates the two-level hash structure: building
// it and point-probing it through single-cell formulas.
func BenchmarkAccessStructure(b *testing.B) {
	db := setupBench(b, sqlsheet.Config{})
	b.Run("build-and-noop", func(b *testing.B) {
		// One trivial formula: cost ≈ structure build + output.
		runQuery(b, db, `SELECT c, h, t, p, s FROM apb_cube
			SPREADSHEET PBY(c, h, t) DBY(p) MEA(s) UPDATE ( s['__missing__'] = 0 )`)
	})
	b.Run("probe-heavy", func(b *testing.B) {
		runQuery(b, db, experiments.S5Query(3, nil))
	})
}

// compiledBenchDB builds an expression-benchmark fact table: enough rows
// that per-row evaluation dominates, with string, integer and float columns
// so predicates can mix arithmetic, LIKE, IN and BETWEEN.
func compiledBenchDB(b *testing.B) *sqlsheet.DB {
	b.Helper()
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	fillEF(b, db)
	return db
}

// fillEF creates and loads the shared expression-benchmark fact table.
func fillEF(b *testing.B, db *sqlsheet.DB) {
	b.Helper()
	db.MustExec(`CREATE TABLE ef (r TEXT, p TEXT, t INT, s FLOAT)`)
	regions := []string{"west", "east", "north", "south"}
	products := []string{"dvd", "vcr", "tv", "video", "dslr", "disk", "amp", "tape"}
	const n = 60000
	rows := make([][]any, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []any{
			regions[i%len(regions)],
			products[(i/7)%len(products)],
			1980 + i%26,
			float64(i%997) * 0.25,
		})
	}
	if err := db.Insert("ef", rows...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCompiledFilter measures an expression-heavy WHERE clause. The
// predicate mixes arithmetic, LIKE, a hashed IN-list, BETWEEN and boolean
// structure so per-row expression evaluation dominates.
func BenchmarkCompiledFilter(b *testing.B) {
	q := `SELECT r, p, t FROM ef
		WHERE (CASE WHEN r = 'west' THEN s * 1.15 WHEN r = 'east' THEN s * 0.95 ELSE s + 3.0 END) * 2.0
		      + t % 7 > 430.0
		  AND (p LIKE 'd%' OR p IN ('vcr', 'tv', 'amp', 'tape', 'video', 'audio', 'cd', 'md', 'laser'))
		  AND t BETWEEN 1981 AND 2004
		  AND NOT (r = 'north' AND s < 5.0)`
	runQuery(b, compiledBenchDB(b), q)
}

// coldBenchDB is the vectorization-ablation variant of compiledBenchDB:
// compiled closures stay on in both legs so the comparison isolates columnar
// kernels against the row-at-a-time closure loop, and the plan cache stays
// off so every iteration takes the cold serving path. The columnar image is
// version-cached on the catalog table, as on any served table.
func coldBenchDB(b *testing.B, disableVec bool) *sqlsheet.DB {
	b.Helper()
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedExec: disableVec}}})
	fillEF(b, db)
	return db
}

// BenchmarkColdScanFilter measures the cold scan-filter path: a selective
// kernel-supported predicate (BETWEEN, LIKE, IN, comparisons — no
// arithmetic) over the 60k-row fact table, vectorized selection kernels
// versus the per-row compiled closure (Config.DisableVectorizedExec).
func BenchmarkColdScanFilter(b *testing.B) {
	q := `SELECT r, p, t FROM ef
		WHERE t BETWEEN 1981 AND 2004
		  AND (p LIKE 'd%' OR p IN ('vcr', 'tv', 'amp', 'tape', 'video', 'audio', 'cd', 'md', 'laser'))
		  AND r <> 'north'
		  AND s > 60.0`
	for _, v := range []struct {
		name    string
		disable bool
	}{{"vectorized", false}, {"interpreted", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := coldBenchDB(b, v.disable)
			runQuery(b, db, q)
		})
	}
}

// BenchmarkColdGroupBy measures the columnar key encoder on the group-by
// path: grouping keys are plain columns, so the vectorized leg encodes keys
// straight from the dictionary/int vectors instead of boxing per row.
func BenchmarkColdGroupBy(b *testing.B) {
	q := `SELECT r, p, SUM(s), COUNT(*) FROM ef WHERE t > 1984 GROUP BY r, p`
	for _, v := range []struct {
		name    string
		disable bool
	}{{"vectorized", false}, {"interpreted", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := coldBenchDB(b, v.disable)
			runQuery(b, db, q)
		})
	}
}

// BenchmarkColdProjection measures the batch compute kernels on the project
// path: every output expression (arithmetic and string concatenation) is
// evaluated as whole output vectors per morsel in the vectorized leg, versus
// the per-row compiled closure loop.
func BenchmarkColdProjection(b *testing.B) {
	q := `SELECT s * 1.15 + t * 0.5, s - t / 4.0, s * s, r || '/' || p FROM ef WHERE t > 1984`
	for _, v := range []struct {
		name    string
		disable bool
	}{{"vectorized", false}, {"interpreted", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := coldBenchDB(b, v.disable)
			runQuery(b, db, q)
		})
	}
}

// BenchmarkColdAgg measures batch aggregation with computed arguments: the
// vectorized leg runs one compute kernel per argument and bulk-feeds the
// batch accumulators by group id, versus per-row closure evaluation plus
// interface-dispatched Adds.
func BenchmarkColdAgg(b *testing.B) {
	q := `SELECT r, SUM(s * 1.1 + t), AVG(s - 100.0), COUNT(t), MIN(s), MAX(s * 2.0) FROM ef GROUP BY r`
	for _, v := range []struct {
		name    string
		disable bool
	}{{"vectorized", false}, {"interpreted", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := coldBenchDB(b, v.disable)
			runQuery(b, db, q)
		})
	}
}

// BenchmarkColdJoinGroupBy measures columnar provenance carried through the
// hash join: the join output gathers both sides' image columns, so the
// post-join group-by still encodes keys from vectors and aggregates through
// batch kernels in the vectorized leg.
func BenchmarkColdJoinGroupBy(b *testing.B) {
	q := `SELECT d.cat, SUM(f.s), COUNT(*) FROM ef f JOIN pd d ON f.p = d.p WHERE f.t > 1984 GROUP BY d.cat`
	for _, v := range []struct {
		name    string
		disable bool
	}{{"vectorized", false}, {"interpreted", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := coldBenchDB(b, v.disable)
			db.MustExec(`CREATE TABLE pd (p TEXT, cat TEXT)`)
			cats := map[string]string{
				"dvd": "media", "vcr": "media", "tape": "media", "disk": "media",
				"tv": "display", "video": "display", "dslr": "optics", "amp": "audio",
			}
			var rows [][]any
			for _, p := range []string{"dvd", "vcr", "tv", "video", "dslr", "disk", "amp", "tape"} {
				rows = append(rows, []any{p, cats[p]})
			}
			if err := db.Insert("pd", rows...); err != nil {
				b.Fatal(err)
			}
			runQuery(b, db, q)
		})
	}
}

// probeBenchDB builds a table whose (r, p, t) keys are unique: 4 regions x
// 32 products x 106 periods, one row per cell, so spreadsheet rules address
// individual cells.
func probeBenchDB(b *testing.B) *sqlsheet.DB {
	b.Helper()
	db := sqlsheet.Open()
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	db.MustExec(`CREATE TABLE es (r TEXT, p TEXT, t INT, s FLOAT)`)
	regions := []string{"west", "east", "north", "south"}
	var rows [][]any
	for ri, r := range regions {
		for pi := 0; pi < 32; pi++ {
			for t := 1900; t <= 2005; t++ {
				rows = append(rows, []any{r, fmt.Sprintf("p%02d", pi), t, float64((ri+pi*7+t)%97) + 1})
			}
		}
	}
	if err := db.Insert("es", rows...); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkCompiledSpreadsheetProbe measures a cell-reference-dense
// spreadsheet rule: each cell reads three prior periods, so the run is
// dominated by formula RHS evaluation plus hash-index cell probes — the
// paths the compiled registry and the allocation-free key encoding serve.
func BenchmarkCompiledSpreadsheetProbe(b *testing.B) {
	// ITERATE(8) re-runs the rule over the built partitions, so probe-path
	// evaluation dominates the one-time access-structure build.
	q := `SELECT r, p, t, s FROM es
		SPREADSHEET PBY(r, p) DBY(t) MEA(s) UPDATE ITERATE (8)
		( s[*] = s[cv(t)] * 0.3 + s[cv(t)-1] * 0.2 + s[cv(t)-2] * 0.15 + s[cv(t)-3] * 0.1
		       + s[cv(t)-4] * 0.1 + s[cv(t)-5] * 0.05 + s[cv(t)-6] * 0.05 + s[cv(t)-7] * 0.05 )`
	runQuery(b, probeBenchDB(b), q)
}

// BenchmarkRepeatedQuery measures the serving path for a repeated statement —
// the dashboard pattern the plan/structure/result cache serves. The query's
// cost is dominated by the access-structure build (13,568 rows partitioned
// and indexed; two aggregate rules). Three tiers:
//
//	cold           — DisablePlanCache: parse, plan, build, evaluate each time
//	warm-plan-only — DisableResultCache: cached plan + version-checked
//	                 structure reuse; formulas still evaluate each time
//	warm           — full cache: fingerprint probe + result-version check
func BenchmarkRepeatedQuery(b *testing.B) {
	q := `SELECT r, p, t, s FROM es
		SPREADSHEET PBY(r) DBY(p, t) MEA(s) UPDATE
		( s['p00', 2006] = sum(s)['p00', 1900 <= t <= 2005],
		  s['p01', 2006] = sum(s)['p01', 1900 <= t <= 2005] )`
	variants := []struct {
		name string
		cfg  sqlsheet.Config
	}{
		{"cold", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}},
		// Cold with the vectorized cold path ablated: the gap between the
		// two cold legs is what columnar scans/partition-key encoding buy
		// before any cache tier kicks in (DESIGN.md §12).
		{"cold-novec", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedExec: true}}}},
		{"warm-plan-only", sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}}},
		{"warm", sqlsheet.Config{}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			db := probeBenchDB(b)
			db.Configure(v.cfg)
			// Prime so the timed loop measures the steady state (cold stays
			// cold: its cache is disabled).
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
			runQuery(b, db, q)
		})
	}
}

// BenchmarkUpdateSlice is the ingest workload's UPDATE — one (c, h, t) slice of
// the benchmark cube (≈ 177.7k rows) — finding its rows by per-row closure
// (vectorized execution off) against by selection kernel over the image's
// columnar form, which each statement derives from the previous one's. The
// "kernel" leg therefore also carries what the closure leg never pays: keeping
// a columnar form current. EXPERIMENTS.md "A write costs what it touches".
func BenchmarkUpdateSlice(b *testing.B) {
	for _, v := range []struct {
		name    string
		disable bool
	}{{"kernel", false}, {"closure", true}} {
		b.Run(v.name, func(b *testing.B) {
			db := sqlsheet.Open()
			db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{Engine: core.Ablation{DisableVectorizedExec: v.disable}}})
			if _, err := db.InstallAPB(sqlsheet.APBScale{Seed: 7, ProductFanout: []int{2, 3, 3, 3, 4, 4},
				Channels: 4, Customers: 8, Years: 2, Density: 0.1}); err != nil {
				b.Fatal(err)
			}
			months := db.MustExec(`SELECT m FROM time_dt ORDER BY m`).Rows
			stmt := func(i int) string {
				return fmt.Sprintf(`UPDATE apb_cube SET s = s + 1 WHERE c = 'cust%02d' AND h = 'chan%d' AND t = '%s'`,
					i%8, i/8%4, months[i/32%len(months)][0].S)
			}
			db.MustExec(stmt(0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				if n := db.MustExec(stmt(i)).Rows[0][0].Int(); n == 0 {
					b.Fatalf("%s updated nothing", stmt(i))
				}
			}
		})
	}
}
