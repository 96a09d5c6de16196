package sqlsheet_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlsheet"
)

// TestConcurrentQueries runs many spreadsheet queries against one DB from
// parallel goroutines (each with internal PE parallelism); run under
// -race this guards the executor's shared-state discipline.
func TestConcurrentQueries(t *testing.T) {
	db := newFactDB(t)
	cfg := db.Options()
	cfg.Parallel = 2
	db.Configure(cfg)
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( s[*, 2003] = s[cv(p), 2002] * 1.5,
		  UPSERT s['video', 2003] = s['tv', 2003] + s['vcr', 2003] )`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("row count %d != %d", len(res.Rows), len(want.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSpillPlusParallel combines the memory-budgeted store with parallel
// PEs — the paper's big-data configuration.
func TestSpillPlusParallel(t *testing.T) {
	db := newFactDB(t)
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( s[*, 2002] = avg(s)[cv(p), 1995 <= t <= 2001] )`
	plain, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Parallel = 4
	cfg.Ablate.Engine.Buckets = 6
	cfg.MemoryBudget = 1500
	cfg.SpillDir = t.TempDir()
	db.Configure(cfg)
	res, stats, err := db.QueryStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlockEvictions == 0 {
		t.Error("expected spill activity")
	}
	if !sameResults(plain, res) {
		t.Fatal("spill+parallel changed results")
	}
}

// TestConcurrentDMLVersionRace pins the catalog-version data race fixed by
// making Table.Version atomic: writers bump table versions (INSERT, UPDATE,
// DELETE) while reader goroutines drive plan/result-cache probes that read
// the same counters to validate cached dependencies. Run under -race this
// fails if either side regresses to plain int access; without -race it still
// checks that cached reads never serve a stale post-DML result.
func TestConcurrentDMLVersionRace(t *testing.T) {
	db := newFactDB(t)
	q := `SELECT r, SUM(s) AS total FROM f GROUP BY r ORDER BY r`
	const writers, readers, iters = 2, 6, 40

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var dml string
				if i%2 == 0 {
					dml = fmt.Sprintf(`INSERT INTO f VALUES ('w%d', 'dvd', %d, 1.0, 0.5)`, w, 3000+i)
				} else {
					dml = fmt.Sprintf(`DELETE FROM f WHERE r = 'w%d'`, w)
				}
				if _, err := db.Exec(dml); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				// The base regions are never touched by the writers, so a
				// correctly-invalidated cache always reports them.
				if len(res.Rows) < 2 {
					errs <- fmt.Errorf("lost base rows: %d groups", len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryContextCancel checks the engine-level cancellation points: a
// context cancelled mid-flight stops a long ITERATE loop promptly and
// surfaces context.Canceled, and a pre-cancelled context never starts.
func TestQueryContextCancel(t *testing.T) {
	db := newFactDB(t)
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r, p) DBY (t) MEA (s) UPDATE ITERATE (50000000)
		( s[2000] = s[2000] * 1.0000001 )`

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := db.QueryContext(ctx, q)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not take effect")
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Errorf("cancellation latency %v too high", e)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := db.QueryContext(pre, `SELECT r FROM f`); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v", err)
	}
}

// TestMVCCZeroSum32Sessions is the snapshot-isolation property test: 32
// sessions (8 writers, 24 readers) hammer one DB. Every write is a
// single-statement zero-sum mutation — balanced INSERT pairs, sign flips,
// whole-pair DELETEs — so the account invariant SUM(v) = 0 holds after
// every statement. A reader that ever sees a nonzero sum has observed a
// torn write (half of a statement) or a future version mid-install; under
// MVCC it must only ever see statement-boundary snapshots. Run under -race
// this also guards the publish/pin memory discipline.
func TestMVCCZeroSum32Sessions(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE acct (k INT, v INT)`)
	db.MustExec(`INSERT INTO acct VALUES (0, 1000), (0, -1000)`)

	const writers, readers, writes = 8, 24, 40
	var wg, wgWriters sync.WaitGroup
	errs := make(chan error, writers+readers)
	var writersDone atomic.Bool

	for w := 0; w < writers; w++ {
		wg.Add(1)
		wgWriters.Add(1)
		go func(w int) {
			defer wg.Done()
			defer wgWriters.Done()
			for i := 0; i < writes; i++ {
				k := w*writes + i + 1
				var err error
				switch i % 3 {
				case 0:
					_, err = db.Exec(fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d), (%d, %d)`, k, k, k, -k))
				case 1:
					_, err = db.Exec(fmt.Sprintf(`UPDATE acct SET v = -v WHERE k = %d`, w*writes+i))
				case 2:
					_, err = db.Exec(fmt.Sprintf(`DELETE FROM acct WHERE k = %d`, w*writes+i-1))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	readTotals := func(id int) {
		defer wg.Done()
		for i := 0; ; i++ {
			// Vary the text so some reads miss the result cache and walk
			// the snapshot scan path.
			q := `SELECT SUM(v) FROM acct`
			if i%2 == 1 {
				q = fmt.Sprintf(`SELECT SUM(v), %d FROM acct`, id)
			}
			res, err := db.Query(q)
			if err != nil {
				errs <- err
				return
			}
			if s := res.Rows[0][0]; !s.IsNull() && s.Int() != 0 {
				errs <- fmt.Errorf("reader %d saw torn state: SUM(v) = %v", id, s)
				return
			}
			if writersDone.Load() {
				return
			}
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go readTotals(r)
	}

	// Flip the flag once all writers are finished; readers exit after one
	// more full pass.
	go func() {
		wgWriters.Wait()
		writersDone.Store(true)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res := db.MustExec(`SELECT SUM(v) FROM acct`)
	if s := res.Rows[0][0]; s.Int() != 0 {
		t.Fatalf("final SUM(v) = %v, want 0", s)
	}
}

// TestReadersNeverBlockOnWriters proves the headline MVCC property: a
// SELECT that starts while a writer holds the exclusive statement lock
// completes before the writer releases it. Under the old RWMutex regime
// this is impossible — a reader arriving during the writer's critical
// section cannot return until the writer does — so any reader observed to
// finish inside the window certifies the lock-free snapshot path.
func TestReadersNeverBlockOnWriters(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE big (k INT, v INT)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO big VALUES (0, 0)`)
	for i := 1; i < 20000; i++ {
		fmt.Fprintf(&b, `, (%d, %d)`, i, i)
	}
	db.MustExec(b.String())
	db.MustExec(`CREATE TABLE tiny (x INT)`)
	db.MustExec(`INSERT INTO tiny VALUES (1), (2), (3)`)

	// One Exec batch = one exclusive critical section spanning all its
	// statements. Eight full-table UPDATEs keep it held for a while.
	var batch strings.Builder
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&batch, `UPDATE big SET v = v + %d;`, i+1)
	}

	var inCritical atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		inCritical.Store(true)
		_, err := db.Exec(batch.String())
		inCritical.Store(false)
		writerDone <- err
	}()

	// Spin readers; count completions that both started and finished while
	// the writer batch was in flight.
	completedInWindow := 0
	for !inCritical.Load() {
		// wait for the writer to enter
	}
	for inCritical.Load() {
		res, err := db.Query(`SELECT COUNT(*) FROM tiny`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].Int() != 3 {
			t.Fatalf("bad read: %v", res.Rows[0][0])
		}
		if inCritical.Load() {
			completedInWindow++
		}
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if completedInWindow == 0 {
		t.Fatal("no reader completed while the writer held the statement lock — reads are blocking on writers")
	}
}

// TestSnapshotGridByteIdentical replays one DML+query script at Workers 1
// and 4 and requires byte-identical SELECT results: the SELECTs read pinned
// images, the DML before them wrote live rows under the exclusive lock, and
// the worker count may not change an answer either way.
func TestSnapshotGridByteIdentical(t *testing.T) {
	script := []string{
		`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`,
	}
	for _, r := range []string{"west", "east"} {
		for pi, p := range []string{"dvd", "vcr", "tv"} {
			for ti := 1998; ti <= 2002; ti++ {
				script = append(script, fmt.Sprintf(`INSERT INTO f VALUES ('%s','%s',%d,%d)`, r, p, ti, (ti-1990)*(pi+1)))
			}
		}
	}
	script = append(script,
		`UPDATE f SET s = s * 2 WHERE p = 'tv'`,
		`DELETE FROM f WHERE t = 1999`,
	)
	queries := []string{
		`SELECT r, p, t, s FROM f ORDER BY r, p, t`,
		`SELECT r, p, t, s FROM f
			SPREADSHEET PBY(r) DBY (p, t) MEA (s)
			( s[*, 2002] = s[cv(p), 2001] * 1.5,
			  UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`,
		`SELECT p, SUM(s) FROM f GROUP BY p ORDER BY p`,
	}

	var want [][]string
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("workers=%d", workers)
		db := sqlsheet.Open()
		cfg := db.Options()
		cfg.Workers = workers
		db.Configure(cfg)
		for _, stmt := range script {
			db.MustExec(stmt)
		}
		for qi, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			got := rowsKey(res)
			if want == nil || len(want) <= qi {
				want = append(want, got)
				continue
			}
			if len(got) != len(want[qi]) {
				t.Fatalf("%s: query %d returned %d rows, want %d", name, qi, len(got), len(want[qi]))
			}
			for i := range got {
				if got[i] != want[qi][i] {
					t.Fatalf("%s: query %d row %d = %q, want %q", name, qi, i, got[i], want[qi][i])
				}
			}
		}
	}
}
