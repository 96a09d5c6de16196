package server_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/server"
	"sqlsheet/internal/shard"
	"sqlsheet/internal/types"
)

// The cluster suite boots real sqlsheetd worker servers (in-process, over
// TCP) behind a scatter-gather coordinator and demands that distributed
// results are byte-identical to a single-process oracle at every shard
// count — including float payload bits and row order, which is why the
// canonical form below prints Float64bits instead of a rendered number.

// canonRows flattens rows at the representation level: kind tag, integer
// payload, float bits, string payload. Identical strings ⇔ bit-identical
// results.
func canonRows[R ~[]types.Value](cols []string, rows []R) string {
	var b strings.Builder
	b.WriteString(strings.Join(cols, ","))
	for _, row := range rows {
		b.WriteByte('\n')
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			fmt.Fprintf(&b, "%d:%d:%016x:%q", v.K, v.I, math.Float64bits(v.F), v.S)
		}
	}
	return b.String()
}

func canonDB(res *sqlsheet.Result) string { return canonRows(res.Columns, res.Rows) }

// startWorkers boots n worker-mode servers with empty databases (workers
// are stateless: every subplan ships its own input rows). WorkerParallel
// is pinned to 1 so cluster speedups measure scatter across processes, not
// intra-worker parallelism.
func startWorkers(t testing.TB, n int) []*server.Server {
	t.Helper()
	ws := make([]*server.Server, n)
	for i := range ws {
		ws[i] = startServer(t, sqlsheet.Open(), server.Config{
			MetricsAddr:    "127.0.0.1:0",
			Worker:         true,
			WorkerParallel: 1,
			MaxInFlight:    8,
			MaxQueue:       16,
		})
	}
	return ws
}

func workerAddrs(ws []*server.Server) []shard.WorkerAddr {
	addrs := make([]shard.WorkerAddr, len(ws))
	for i, w := range ws {
		addrs[i] = shard.WorkerAddr{Addr: w.Addr().String(), MetricsAddr: w.MetricsAddr()}
	}
	return addrs
}

// distFactDB builds the fact-table DB with a coordinator over ws installed
// as its distributor. MinRows 1 so the small test table still distributes.
func distFactDB(t testing.TB, ws []*server.Server, cfg sqlsheet.Config) (*sqlsheet.DB, *shard.Coordinator) {
	t.Helper()
	db := newFactDB(t)
	db.Configure(cfg)
	coord := shard.New(shard.Config{Workers: workerAddrs(ws), MinRows: 1})
	db.SetDistributor(coord)
	t.Cleanup(coord.Close)
	return db, coord
}

// clusterQueries deliberately omit ORDER BY: the distributed contract
// covers raw merge order (bucket/frame order for sheets, morsel first-seen
// order for group-bys), not just sorted output. The last two are
// non-distributable (global aggregate; no PBY) and pin the fallback path.
var clusterQueries = []string{
	`SELECT r, p, t, s FROM f
	   SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
	   ( s['dvd', 2002] = s['dvd', 2000] + s['dvd', 2001],
	     s['tv', 2002] = avg(s)['tv', 1992 <= t <= 2001] )`,
	`SELECT r, p, t, s, c FROM f
	   SPREADSHEET PBY(r) DBY (p, t) MEA (s, c)
	   ( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002],
	     c['video', 2002] = 0.0 )`,
	`SELECT r, p, SUM(s), AVG(c), COUNT(*) FROM f GROUP BY r, p`,
	`SELECT p, SUM(s * 1.0000001), AVG(s / 3.0) FROM f GROUP BY p`,
	`SELECT SUM(s), AVG(c) FROM f`,
	`SELECT r, p, t, s FROM f
	   SPREADSHEET DBY (r, p, t) MEA (s)
	   ( UPSERT s['west', 'video', 2002] = s['west', 'tv', 2002] )`,
}

// clusterDML is replayed identically on oracle and distributed DBs between
// query rounds, exercising the version-invalidation path: the second round
// must re-execute (and re-distribute), not serve cached results.
var clusterDML = []string{
	`INSERT INTO f VALUES ('north', 'dvd', 2003, 7.25, 3.5)`,
	`UPDATE f SET s = s + 0.125 WHERE p = 'vcr'`,
}

func queryCanon(t *testing.T, db *sqlsheet.DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return canonDB(res)
}

// TestClusterByteIdenticalGrid is the acceptance grid: shard counts 1/2/4 ×
// db operator workers 1/4, pre- and post-DML, every result byte-identical
// to one single-process oracle. MorselSize is pinned small so the 66-row
// fact table spans several morsels and the per-morsel partial merge is
// actually exercised; Buckets is pinned because spreadsheet row order is a
// documented function of the bucket count (which otherwise tracks
// Parallel), and the grid varies Parallel while sharing one serial oracle.
func TestClusterByteIdenticalGrid(t *testing.T) {
	workers := startWorkers(t, 4)

	oracle := newFactDB(t)
	oracle.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}, Engine: core.Ablation{Buckets: 4}}})
	want := make([]string, len(clusterQueries))
	for i, q := range clusterQueries {
		want[i] = queryCanon(t, oracle, q)
	}
	for _, d := range clusterDML {
		oracle.MustExec(d)
	}
	want2 := make([]string, len(clusterQueries))
	for i, q := range clusterQueries {
		want2[i] = queryCanon(t, oracle, q)
	}

	for _, nw := range []int{1, 2, 4} {
		for _, dbw := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d,workers=%d", nw, dbw), func(t *testing.T) {
				db, coord := distFactDB(t, workers[:nw], sqlsheet.Config{
					Parallel: dbw, Workers: dbw,
					Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}, Engine: core.Ablation{Buckets: 4}},
				})
				for i, q := range clusterQueries {
					if got := queryCanon(t, db, q); got != want[i] {
						t.Errorf("query %d differs from single-process oracle\ngot:\n%s\nwant:\n%s", i, got, want[i])
					}
				}
				for _, d := range clusterDML {
					db.MustExec(d)
				}
				for i, q := range clusterQueries {
					if got := queryCanon(t, db, q); got != want2[i] {
						t.Errorf("query %d post-DML differs from oracle\ngot:\n%s\nwant:\n%s", i, got, want2[i])
					}
				}
				m := coord.Metrics()
				if m.SheetSubplans.Load() == 0 {
					t.Error("no spreadsheet node was distributed")
				}
				if m.GroupSubplans.Load() == 0 {
					t.Error("no group-by node was distributed")
				}
			})
		}
	}
}

// TestClusterExplainAnnotations checks EXPLAIN's distributed= verdicts: yes
// on shardable nodes, a reason on fallbacks, and no annotation at all
// without a distributor (single-process EXPLAIN output is unchanged).
func TestClusterExplainAnnotations(t *testing.T) {
	workers := startWorkers(t, 2)
	db, _ := distFactDB(t, workers, sqlsheet.Config{})
	for i, want := range map[int]string{
		0: "distributed=yes",         // PBY spreadsheet
		2: "distributed=yes",         // keyed group-by
		4: "distributed=no(no-keys)", // global aggregate
		5: "distributed=no(no-pby)",  // spreadsheet without PARTITION BY
	} {
		text, err := db.Explain(clusterQueries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN of query %d: want %q in:\n%s", i, want, text)
		}
	}
	local := newFactDB(t)
	text, err := local.Explain(clusterQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text, "distributed=") {
		t.Errorf("single-process EXPLAIN grew a distributed= annotation:\n%s", text)
	}
}

// TestClusterCancelMidScatter cancels a query while its shards are
// executing remotely: the coordinator must broadcast CANCEL to every
// in-flight shard and the workers must actually stop (in-flight subplan
// count drains to zero, cancellations recorded) instead of burning CPU on
// an abandoned scatter.
func TestClusterCancelMidScatter(t *testing.T) {
	workers := startWorkers(t, 2)
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE big (r INT, d INT, m FLOAT)`)
	for r := 0; r < 64; r++ {
		if err := db.Insert("big", []any{r, 1, float64(r)}, []any{r, 2, float64(r) / 3}); err != nil {
			t.Fatal(err)
		}
	}
	coord := shard.New(shard.Config{Workers: workerAddrs(workers), MinRows: 1})
	db.SetDistributor(coord)
	t.Cleanup(coord.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, `SELECT r, d, m FROM big
		SPREADSHEET PBY(r) DBY (d) MEA (m)
		ITERATE (500000)
		( m[1] = m[1]*1.0000001 + m[2]*0.0000001 )`)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if coord.Metrics().Cancels.Load() == 0 {
		t.Error("coordinator broadcast no CANCELs to in-flight shards")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var inflight, canceled int64
		for _, w := range workers {
			inflight += w.Metrics.SubplansInFlight.Load()
			canceled += w.Metrics.SubplansCanceled.Load()
		}
		if inflight == 0 && canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers still scanning after cancel: inflight=%d canceled=%d", inflight, canceled)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterWorkerRestartReconnect kills one of two workers and demands
// the coordinator (a) degrades to local execution without erroring or
// changing a byte, and (b) rediscovers the worker once it is restarted on
// the same address, resuming distribution through a fresh connection.
func TestClusterWorkerRestartReconnect(t *testing.T) {
	w1 := startWorkers(t, 1)[0]
	w2 := server.New(sqlsheet.Open(), server.Config{
		Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0",
		Worker: true, WorkerParallel: 1,
	})
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	addr2, maddr2 := w2.Addr().String(), w2.MetricsAddr()

	oracle := newFactDB(t)
	db := newFactDB(t)
	coord := shard.New(shard.Config{
		Workers: append(workerAddrs([]*server.Server{w1}), shard.WorkerAddr{Addr: addr2, MetricsAddr: maddr2}),
		MinRows: 1,
	})
	db.SetDistributor(coord)
	t.Cleanup(coord.Close)

	check := func(step string) {
		t.Helper()
		q := clusterQueries[0]
		want := queryCanon(t, oracle, q)
		if got := queryCanon(t, db, q); got != want {
			t.Fatalf("%s: distributed result differs from oracle\ngot:\n%s\nwant:\n%s", step, got, want)
		}
	}
	year := 2004
	bump := func() { // invalidate cached results so the next query re-executes
		for _, d := range []*sqlsheet.DB{oracle, db} {
			d.MustExec(fmt.Sprintf(`INSERT INTO f VALUES ('north', 'tv', %d, 1.5, 0.75)`, year))
		}
		year++
	}

	check("both workers up")
	if coord.Metrics().SheetSubplans.Load() == 0 {
		t.Fatal("query was not distributed with both workers up")
	}

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	w2.Shutdown(sctx)
	scancel()
	bump()
	check("one worker down")
	if coord.Metrics().Fallbacks.Load() == 0 {
		t.Error("no local fallback recorded while a worker was down")
	}

	// Restart on the same wire and metrics addresses, as a supervisor would.
	var w2b *server.Server
	for attempt := 0; ; attempt++ {
		w2b = server.New(sqlsheet.Open(), server.Config{
			Addr: addr2, MetricsAddr: maddr2,
			Worker: true, WorkerParallel: 1,
		})
		if err := w2b.Start(); err == nil {
			break
		} else if attempt > 50 {
			t.Fatalf("restart on %s: %v", addr2, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w2b.Shutdown(ctx)
	})

	bump()
	check("worker restarted")
	snap := coord.Snapshot()
	var redials int64
	for _, w := range snap.Workers {
		redials += w.Redials
	}
	if redials == 0 {
		t.Error("coordinator never redialed the restarted worker")
	}
	if w2b.Metrics.SubplansTotal.Load() == 0 {
		t.Error("restarted worker received no subplans: distribution did not resume")
	}
}

// TestClusterConcurrentSessions fronts a coordinator DB with a serving
// layer and hammers it from concurrent client sessions; every result must
// match the serial single-process replay (this also exercises the
// per-worker subplan serialization on shared coordinator connections).
func TestClusterConcurrentSessions(t *testing.T) {
	workers := startWorkers(t, 2)
	db, _ := distFactDB(t, workers, sqlsheet.Config{Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	srv := startServer(t, db, server.Config{MaxInFlight: 8, MaxQueue: 64, QueueWait: 30 * time.Second})

	oracle := newFactDB(t)
	oracle.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	want := make([]string, len(clusterQueries))
	for i, q := range clusterQueries {
		want[i] = queryCanon(t, oracle, q)
	}

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < len(clusterQueries); k++ {
				i := (s + k) % len(clusterQueries)
				res, err := c.Query(clusterQueries[i])
				if err != nil {
					errs <- fmt.Errorf("session %d query %d: %v", s, i, err)
					return
				}
				if got := canonRows(res.Cols, res.Rows); got != want[i] {
					errs <- fmt.Errorf("session %d query %d differs from serial replay\ngot:\n%s\nwant:\n%s",
						s, i, got, want[i])
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkShardedSpreadsheet measures end-to-end spreadsheet execution
// over 32 partitions of 256 rows with per-cell prefix aggregates (work is
// proportional to data, unlike ITERATE whose cost is per-round batch
// overhead). Three topologies: local single-process, scatter to 1 worker,
// scatter to 2 workers. Workers run their shards serially
// (WorkerParallel=1) and the coordinator DB is pinned serial too, so
// workers=2 vs workers=1 isolates inter-process scaling — note that ratio
// needs ≥2 CPUs to show; on a single-core host the two CPU-bound worker
// processes time-slice one core and the ratio pins at ~1.0×. The
// workers=N vs local ratio (evaluation shipped to a worker's in-memory
// partition store instead of the spill-capable chunk store) is visible on
// any host.
func BenchmarkShardedSpreadsheet(b *testing.B) {
	const q = `SELECT r, d, m, u, v FROM big
		SPREADSHEET PBY(r) DBY (d) MEA (m, u, v)
		( UPDATE u[*] = avg(m)[d <= cv(d)] + m[cv(d)]*0.5,
		  UPDATE v[*] = sum(u)[d <= cv(d)]*0.001 + m[cv(d)] )`
	newBigDB := func(b *testing.B) *sqlsheet.DB {
		db := sqlsheet.Open()
		db.Configure(sqlsheet.Config{Parallel: 1, Workers: 1, Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
		db.MustExec(`CREATE TABLE big (r INT, d INT, m FLOAT, u FLOAT, v FLOAT)`)
		for r := 0; r < 32; r++ {
			for d := 1; d <= 256; d++ {
				if err := db.Insert("big", []any{r, d, float64(r*d) / 7, 0.0, 0.0}); err != nil {
					b.Fatal(err)
				}
			}
		}
		return db
	}
	run := func(b *testing.B, db *sqlsheet.DB) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("topology=local", func(b *testing.B) {
		run(b, newBigDB(b))
	})
	for _, nw := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			workers := startWorkers(b, nw)
			db := newBigDB(b)
			coord := shard.New(shard.Config{Workers: workerAddrs(workers), MinRows: 1})
			db.SetDistributor(coord)
			b.Cleanup(coord.Close)
			if _, err := db.Query(q); err != nil { // warm connections, surface errors
				b.Fatal(err)
			}
			m := coord.Metrics()
			if m.SheetSubplans.Load() == 0 || m.Fallbacks.Load() != 0 {
				b.Fatalf("benchmark not distributed: subplans=%d fallbacks=%d",
					m.SheetSubplans.Load(), m.Fallbacks.Load())
			}
			run(b, db)
		})
	}
}
