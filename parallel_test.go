// Property tests for the morsel-driven parallel operators: for every query
// shape and worker count the engine must return exactly the rows, in exactly
// the order, that serial execution (Workers: 1) returns. Morsel boundaries
// are a pure function of the input size — never the worker count — so even
// floating-point aggregation is bit-identical across worker counts.
package sqlsheet_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/types"
)

// parallelPropDB builds two random tables large enough to cross a small
// morsel threshold: a fact t1 and a dimension t2 with overlapping keys.
func parallelPropDB(t *testing.T, rng *rand.Rand) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t1 (a INT, b FLOAT, c TEXT)`)
	db.MustExec(`CREATE TABLE t2 (k INT, d TEXT, w FLOAT)`)
	n1 := 200 + rng.Intn(200)
	rows := make([][]any, 0, n1)
	for i := 0; i < n1; i++ {
		var b any
		if rng.Intn(10) == 0 {
			b = nil // exercise NULL handling in filters and aggregates
		} else {
			b = rng.NormFloat64() * 100
		}
		rows = append(rows, []any{rng.Intn(64), b, fmt.Sprintf("c%02d", rng.Intn(24))})
	}
	if err := db.Insert("t1", rows...); err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < 48; i++ { // some t1.a values have no match, some dims dangle
		rows = append(rows, []any{rng.Intn(80), fmt.Sprintf("d%02d", i), rng.Float64() * 10})
	}
	if err := db.Insert("t2", rows...); err != nil {
		t.Fatal(err)
	}
	return db
}

// exactRows renders a result preserving row order and exact float bits.
func exactRows(res *sqlsheet.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = types.Key(r...)
	}
	return out
}

func TestParallelOperatorsEqualSerial(t *testing.T) {
	queries := []string{
		// Filter + projection with arithmetic and NULL-producing division.
		`SELECT a, b * 2.5 + 1, c FROM t1 WHERE a % 7 < 4`,
		`SELECT c, b / (a + 31) FROM t1 WHERE b > -50`,
		// Hash joins: inner, left, right, with residual predicates.
		`SELECT t1.a, t2.d, t1.b + t2.w FROM t1 JOIN t2 ON t1.a = t2.k`,
		`SELECT t1.c, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.k AND t1.b > t2.w`,
		`SELECT t2.k, t1.b FROM t1 RIGHT JOIN t2 ON t1.a = t2.k WHERE t2.w > 1`,
		// Group-by: mergeable aggregates (parallel) and MIN/MAX (serial
		// fallback), float accumulation included.
		`SELECT c, SUM(b), COUNT(*), AVG(b) FROM t1 GROUP BY c`,
		`SELECT a % 5, MIN(b), MAX(c), SUM(a) FROM t1 GROUP BY a % 5`,
		// Global aggregation and join feeding group-by.
		`SELECT COUNT(b), SUM(b), SLOPE(b, a) FROM t1`,
		`SELECT t2.d, SUM(t1.b), COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := parallelPropDB(t, rng)
		for qi, q := range queries {
			// MorselSize 16 puts a few hundred rows well past the 2×-morsel
			// threshold, so the morsel path is exercised at both settings.
			db.Configure(sqlsheet.Config{Workers: 1, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
			serial, err := db.Query(q)
			if err != nil {
				t.Fatalf("seed %d query %d serial: %v\n%s", seed, qi, err, q)
			}
			db.Configure(sqlsheet.Config{Workers: 8, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
			parallel, err := db.Query(q)
			if err != nil {
				t.Fatalf("seed %d query %d parallel: %v\n%s", seed, qi, err, q)
			}
			ks, kp := exactRows(serial), exactRows(parallel)
			if len(ks) != len(kp) {
				t.Fatalf("seed %d query %d: %d rows serial, %d parallel\n%s",
					seed, qi, len(ks), len(kp), q)
			}
			for i := range ks {
				if ks[i] != kp[i] {
					t.Fatalf("seed %d query %d row %d differs\nserial:   %v\nparallel: %v\n%s",
						seed, qi, i, serial.Rows[i], parallel.Rows[i], q)
				}
			}
		}
	}
}

// TestQueryOpStats checks that the parallel operators report their
// per-operator statistics through the public API and EXPLAIN ANALYZE text.
func TestQueryOpStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := parallelPropDB(t, rng)
	db.Configure(sqlsheet.Config{Workers: 2, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	q := `SELECT t2.d, SUM(t1.b) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`
	_, ops, err := db.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range ops.Ops {
		seen[op.Op] = true
		if op.Rows <= 0 || op.Morsels <= 0 || op.Workers < 1 {
			t.Errorf("implausible stat: %+v", op)
		}
	}
	for _, want := range []string{"join-probe", "group-by"} {
		if !seen[want] {
			t.Errorf("no %q stat in %v", want, ops.Ops)
		}
	}
	text, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "execution:") || !strings.Contains(text, "group-by") {
		t.Errorf("ExplainAnalyze output missing stats:\n%s", text)
	}
}

// TestWorkersWithSpreadsheetParallel combines the operator worker pool with
// spreadsheet partition parallelism. Both draw PEs from one shared core
// budget, so the combination must neither deadlock nor change results; the
// timeout guard turns a budget deadlock into a test failure instead of a
// suite hang.
func TestWorkersWithSpreadsheetParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := parallelPropDB(t, rng)
	q := `SELECT a, c, s, r FROM
		(SELECT a, c, SUM(b) s, 0 r FROM t1 GROUP BY a, c) v
		SPREADSHEET PBY(c) DBY(a) MEA(s, r) UPDATE
		( r[*] = s[cv(a)] / sum(s)[*] )`

	// Baseline keeps Parallel=4 (bucket partitioning, and so row order, is a
	// function of the requested PE count) but serial operators; the combined
	// run adds the worker pool on top.
	db.Configure(sqlsheet.Config{Workers: 1, Parallel: 4, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	db.Configure(sqlsheet.Config{Workers: 1, Parallel: 1, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(want, serial) {
		t.Fatal("Parallel=4 and Parallel=1 disagree as multisets")
	}

	db.Configure(sqlsheet.Config{Workers: 4, Parallel: 4, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	done := make(chan *sqlsheet.Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := db.Query(q)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()
	var got *sqlsheet.Result
	select {
	case got = <-done:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("Workers=4 + Parallel=4 query did not finish: core-budget deadlock?")
	}
	kw, kg := exactRows(want), exactRows(got)
	if len(kw) != len(kg) {
		t.Fatalf("%d rows serial, %d combined-parallel", len(kw), len(kg))
	}
	for i := range kw {
		if kw[i] != kg[i] {
			t.Fatalf("row %d differs\nserial:   %v\ncombined: %v", i, want.Rows[i], got.Rows[i])
		}
	}
}
