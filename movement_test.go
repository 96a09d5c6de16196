// End-to-end tests for the parallel data-movement layer: the partitioned
// access-structure build, the chunked external sort, and asynchronous spill
// I/O. That every knob combination returns byte-identical rows is the
// differential harness's (the move and spill3 configurations).
package sqlsheet_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/blockstore"
)

// movementQuery touches all three data movers at once: the spreadsheet clause
// forces a partition build, ORDER BY forces a sort, and a small MemoryBudget
// pushes both the partitions and the sort through the spill store. The ORDER
// BY key (r, p, t) is unique per row, so the output order is total.
const movementQuery = `SELECT r, p, t, s FROM f
	SPREADSHEET PBY(r) DBY (p, t) MEA (s)
	( s[*, 2003] = avg(s)[cv(p), 1995 <= t <= 2002] )
	ORDER BY r, p, t`

// TestDataMovementSpillEngages guards the harness's budgeted configurations
// against vacuousness: under the budget the query must actually move blocks
// through the spill store.
func TestDataMovementSpillEngages(t *testing.T) {
	db := fixtureDB(t, randomFactDB(1))
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
	want := rowBits(db.Query(movementQuery))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := rowBits(db.Query(movementQuery)); got != want {
					errs <- fmt.Errorf("goroutine %d: %s", g, firstDiff(want, got))
					return
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

// failingWrites is a spill file whose writes fail as on a full disk.
type failingWrites struct{ blockstore.File }

func (failingWrites) WriteAt([]byte, int64) (int, error) {
	return 0, errors.New("no space left on device")
}

// TestSpillWriteFailureFailsTheStatement: a spill write that fails ends the
// statement that spilled — a budgeted spreadsheet on two PEs, a budgeted
// sort, with the writes done in the background and in the foreground — with
// an error naming the spill operation, and the database goes on serving.
func TestSpillWriteFailureFailsTheStatement(t *testing.T) {
	create := blockstore.CreateFile
	defer func() { blockstore.CreateFile = create }()
	failing := func(dir string) (blockstore.File, error) {
		f, err := create(dir)
		if err != nil {
			return nil, err
		}
		return failingWrites{f}, nil
	}
	const sheetQ = `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( s[*, 2003] = avg(s)[cv(p), 1995 <= t <= 2002] )`
	const sortQ = `SELECT r, p, t, s FROM f ORDER BY s, r, p, t`
	for _, async := range []bool{true, false} {
		db := fixtureDB(t, randomFactDB(1))
		cfg := sqlsheet.Config{Parallel: 2, MemoryBudget: 600, SpillDir: t.TempDir()}
		cfg.Ablate.Engine.Buckets = 3
		cfg.Ablate.Exec.DisableAsyncSpill = !async
		db.Configure(cfg)
		want := map[string]string{}
		for _, q := range []string{sheetQ, sortQ} {
			want[q] = rowBits(db.Query(q))
		}
		blockstore.CreateFile = failing
		for _, q := range []string{sheetQ, sortQ} {
			if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "spill write") {
				t.Errorf("async=%v: %s: err %v, want a spill write error", async, q, err)
			}
		}
		db.MustExec(`INSERT INTO f VALUES ('south', 'tv', 2000, 1.5)`)
		db.MustExec(`DELETE FROM f WHERE r = 'south'`)
		blockstore.CreateFile = create
		for _, q := range []string{sheetQ, sortQ} {
			if got := rowBits(db.Query(q)); got != want[q] {
				t.Errorf("async=%v: %s after the failure: %s", async, q, firstDiff(want[q], got))
			}
		}
	}
}
