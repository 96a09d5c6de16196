// End-to-end tests for the parallel data-movement layer: the partitioned
// access-structure build, the chunked external sort, and asynchronous spill
// I/O. Every knob combination must return byte-identical rows — parallelism
// here buys throughput, never a different answer.
package sqlsheet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sqlsheet"
)

// movementQuery touches all three data movers at once: the spreadsheet clause
// forces a partition build, ORDER BY forces a sort, and a small MemoryBudget
// pushes both the partitions and the sort through the spill store. The ORDER
// BY key (r, p, t) is unique per row, so the output order is total and the
// comparison below can demand byte identity.
const movementQuery = `SELECT r, p, t, s FROM f
	SPREADSHEET PBY(r) DBY (p, t) MEA (s)
	( s[*, 2003] = avg(s)[cv(p), 1995 <= t <= 2002] )
	ORDER BY r, p, t`

// TestDataMovementConfigsPreserveResults is the acceptance property for this
// layer: Workers=1 (serial build, one whole-input sort) versus Workers=N
// (parallel build, chunked sort) and async versus sync spill all yield
// byte-identical rows, in memory and under a budget that forces spilling.
func TestDataMovementConfigsPreserveResults(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		db := randomFactDB(t, rand.New(rand.NewSource(seed)))
		// Buckets and MorselSize are pinned: row order follows the bucket
		// count, and a small morsel puts a few hundred rows on the chunked
		// paths.
		cfg := func(par, workers int, syncSpill bool) sqlsheet.Config {
			c := sqlsheet.Config{Parallel: par, Workers: workers}
			c.Ablate.Engine.Buckets = 7
			c.Ablate.Exec.MorselSize = 16
			c.Ablate.Exec.DisableAsyncSpill = syncSpill
			return c
		}
		base := cfg(1, 1, true)
		db.Configure(base)
		ref, err := db.Query(movementQuery)
		if err != nil {
			t.Fatal(err)
		}
		want := exactRows(ref)
		spill := func(c sqlsheet.Config) sqlsheet.Config {
			c.MemoryBudget = 1500
			c.SpillDir = t.TempDir()
			return c
		}
		variants := []struct {
			name string
			cfg  sqlsheet.Config
		}{
			{"parallel", cfg(3, 8, false)},
			{"spill-async", spill(cfg(3, 8, false))},
			{"spill-sync", spill(cfg(3, 8, true))},
			{"spill-serial", spill(base)},
		}
		for _, v := range variants {
			db.Configure(v.cfg)
			res, err := db.Query(movementQuery)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, v.name, err)
			}
			got := exactRows(res)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d rows, serial baseline has %d", seed, v.name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: row %d differs from serial baseline", seed, v.name, i)
				}
			}
		}
	}
}

// TestDataMovementSpillEngages guards the property test above against
// vacuousness: under the budget the query must actually move blocks through
// the spill store.
func TestDataMovementSpillEngages(t *testing.T) {
	db := randomFactDB(t, rand.New(rand.NewSource(1)))
	cfg := sqlsheet.Config{Parallel: 3, Workers: 8, MemoryBudget: 1500, SpillDir: t.TempDir()}
	cfg.Ablate.Engine.Buckets = 7
	cfg.Ablate.Exec.MorselSize = 16
	db.Configure(cfg)
	_, stats, err := db.QueryStats(movementQuery)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlockEvictions == 0 {
		t.Error("expected block evictions under a 1500-byte budget")
	}
	if stats.BytesSpilled == 0 {
		t.Error("expected spilled bytes under a 1500-byte budget")
	}
}

// TestConcurrentDataMovement runs the full build+sort+spill pipeline from
// several client goroutines against one shared database. Its job is to give
// `make race` concurrent coverage of the partition build workers, the sort
// run pool, and the async spill writer/prefetcher all at once.
func TestConcurrentDataMovement(t *testing.T) {
	db := newFactDB(t)
	cfg := db.Options()
	cfg.Parallel = 2
	cfg.Workers = 4
	cfg.Ablate.Engine.Buckets = 6
	cfg.Ablate.Exec.MorselSize = 16
	cfg.MemoryBudget = 1500
	cfg.SpillDir = t.TempDir()
	db.Configure(cfg)
	ref, err := db.Query(movementQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := exactRows(ref)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := db.Query(movementQuery)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				got := exactRows(res)
				if len(got) != len(want) {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(got), len(want))
					return
				}
				for j := range got {
					if got[j] != want[j] {
						errs <- fmt.Errorf("goroutine %d: row %d differs", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExplainDataMovementNotes checks that EXPLAIN advertises the parallel
// strategies exactly when they are configured: an explicit Workers>1
// annotates both the Sort and the Spreadsheet; Workers=1 is serial and says
// nothing, and so does the default configuration (Workers=0 resolves to the
// core count at run time), so EXPLAIN output is machine-independent.
func TestExplainDataMovementNotes(t *testing.T) {
	db := newFactDB(t)
	const buildNote = "parallel partition build"
	const sortNote = "parallel chunked sort"

	db.Configure(sqlsheet.Config{Workers: 4})
	out, err := db.Explain(movementQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, buildNote+" (4 workers)") {
		t.Errorf("Workers=4 explain lacks build note:\n%s", out)
	}
	if !strings.Contains(out, sortNote+" (4 workers, loser-tree merge)") {
		t.Errorf("Workers=4 explain lacks sort note:\n%s", out)
	}

	db.Configure(sqlsheet.Config{Workers: 1})
	out, err = db.Explain(movementQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, buildNote) || strings.Contains(out, sortNote) {
		t.Errorf("serial explain still advertises parallel strategies:\n%s", out)
	}

	db.Configure(sqlsheet.Config{})
	out, err = db.Explain(movementQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, buildNote) || strings.Contains(out, sortNote) {
		t.Errorf("default (Workers=0) explain must stay machine-independent:\n%s", out)
	}
}

// BenchmarkExternalSort measures ORDER BY over a table whose estimated
// footprint exceeds the memory budget, forcing the chunked external merge
// sort through the spill store. Sub-benchmarks compare the in-memory parallel
// sort against the external path with asynchronous and synchronous spill I/O;
// run with -cpu 1,4 to sweep the worker pool.
func BenchmarkExternalSort(b *testing.B) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE big (a INT, b FLOAT, c TEXT)`)
	rng := rand.New(rand.NewSource(7))
	const n = 20000
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %.4f, 'c%03d')", rng.Intn(10000), rng.NormFloat64()*100, rng.Intn(500))
		}
		db.MustExec(sb.String())
	}
	q := `SELECT a, b, c FROM big ORDER BY b, a`
	variants := []struct {
		name      string
		budget    int64
		syncSpill bool
	}{
		{"mem", 0, false},
		{"spill-async", 64 << 10, false},
		{"spill-sync", 64 << 10, true},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			cfg := sqlsheet.Config{MemoryBudget: v.budget}
			cfg.Ablate.Exec.DisableAsyncSpill = v.syncSpill
			cfg.Workers = runtime.GOMAXPROCS(0) // -cpu N sweeps the pool size
			if cfg.MemoryBudget > 0 {
				cfg.SpillDir = b.TempDir()
			}
			db.Configure(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
