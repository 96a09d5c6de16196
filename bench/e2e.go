package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sqlsheet"
	"sqlsheet/internal/apb"
	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/client"
	"sqlsheet/internal/wire"
)

// config is what one benchmark run is told from outside.
type config struct {
	workload string
	seed     int64
	seconds  int
	small    bool      // smoke-test dataset and one measured round (tests)
	outDir   string    // scratch: WAL directories and trace files
	log      io.Writer // human-readable report
}

func (c config) rounds() int {
	if c.small {
		return 1
	}
	return rounds
}

// setupRuns is how many times a run sets the server up from nothing;
// setup_s is the median, so one slow process start cannot move it.
const setupRuns = 3

// reply is one statement's outcome as the client saw it.
type reply struct {
	latency time.Duration
	hash    uint64
	err     error
	frame   []byte // the reply's frame bytes, kept for the traced run only
}

// runSeq executes a sequence on one connection, closed loop: the next
// statement is sent only when the previous reply is decoded. With
// keepFrames it also keeps each reply's frame bytes, rebuilt from the
// decoded reply: the wire codec is canonical (floats in shortest exact form,
// strings %q), so re-encoding what the client decoded yields the bytes the
// server sent.
func runSeq(cl *client.Client, seq []stmt, keepFrames bool) []reply {
	out := make([]reply, len(seq))
	for i, s := range seq {
		start := time.Now()
		res, err := cl.Query(s.sql)
		out[i].latency = time.Since(start)
		if err != nil {
			out[i].err = err
			continue
		}
		out[i].hash = hashRows(res.Cols, res.Rows)
		if keepFrames {
			rows := make([]sqlsheet.Row, len(res.Rows))
			for j, r := range res.Rows {
				rows[j] = r
			}
			out[i].frame = wire.EncodeResult(res.Cols, res.Kinds, rows)
		}
	}
	return out
}

// runClients runs one sequence per connection concurrently and returns the
// replies and the wall time from the common start to the last reply.
func runClients(conns []*client.Client, per [][]stmt, keepFrames bool) ([][]reply, time.Duration) {
	out := make([][]reply, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = runSeq(conns[c], per[c], keepFrames)
		}(c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// serverUnderTest is a child plus its connections and WAL directory.
type serverUnderTest struct {
	child  *child
	conns  []*client.Client
	walDir string
}

// stop kills the server and deletes its WAL directory, so no run inherits
// another's state. Safe to call twice.
func (s *serverUnderTest) stop() {
	if s.child != nil {
		s.child.kill()
		s.child = nil
	}
	os.RemoveAll(s.walDir)
}

// setup starts a server on a fresh WAL directory, connects the workload's
// clients and runs the warm-up pass. The time it returns is setup_s: spawn
// to warm-up finished.
func setup(cfg config, w *workload, n int) (*serverUnderTest, [][]reply, float64, error) {
	walDir := filepath.Join(cfg.outDir, fmt.Sprintf("wal-%s-%d-%d", w.name, os.Getpid(), n))
	os.RemoveAll(walDir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	s := &serverUnderTest{walDir: walDir}
	var warm [][]reply
	secs, err := timeIt(func() error {
		var err error
		if s.child, err = spawn(walDir, cfg.seed, cfg.small); err != nil {
			return err
		}
		if s.conns, err = s.child.dial(w.clients); err != nil {
			return err
		}
		warm, _ = runClients(s.conns, w.warm, false)
		return nil
	})
	if err != nil {
		s.stop()
		return nil, nil, 0, err
	}
	return s, warm, secs, nil
}

// roundStats are one measured round's end-to-end numbers.
type roundStats struct {
	wall, cpu float64
	replies   [][]reply
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	i := int(float64(len(sorted))*p/100+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runResult is what one run of one workload reports, in either mode.
type runResult struct {
	metrics           map[string]float64
	attempted, failed int
	correct           bool
	notes             []string // why correct is false, and failed samples
}

func (r *runResult) fail(format string, a ...any) {
	r.correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// prepare generates the run's dataset and statement sequences (at most
// maxUnits units per round) and makes the scratch directory.
func prepare(cfg config, maxUnits int) (*workload, *apb.Data, sqlsheet.APBScale, error) {
	scale := scaleFor(cfg.seed, cfg.small)
	units := min(roundUnits(cfg.workload, cfg.seconds), maxUnits)
	if cfg.small {
		units = 1
	}
	data := datasetFor(scale)
	w, err := generate(cfg.workload, cfg.seed, data, units)
	if err != nil {
		return nil, nil, scale, err
	}
	return w, data, scale, os.MkdirAll(cfg.outDir, 0o755)
}

// runE2E measures one workload with tracing off.
func runE2E(cfg config) (*runResult, error) {
	w, _, apbScale, err := prepare(cfg, math.MaxInt)
	if err != nil {
		return nil, err
	}
	w.seq = w.seq[:cfg.rounds()]
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d client(s), %d statements per round, wal_fs %s\n",
		w.name, cfg.seed, w.clients, perRound(w), fsName(cfg.outDir))

	// Set-up, several times over; the last server is the one measured. The
	// host-speed probe runs between all timed sections (see hostspeed.go).
	probe := newHostProbe(runtime.NumCPU())
	probe.run()
	var sut *serverUnderTest
	var warm [][]reply
	var setups []float64
	for n := 0; n < setupRuns; n++ {
		if sut != nil {
			sut.stop()
		}
		var secs float64
		if sut, warm, secs, err = setup(cfg, w, n); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
		probe.run()
	}
	defer func() { sut.stop() }()

	// Measured rounds.
	var all []roundStats
	for r := range w.seq {
		cpu0, err := sut.child.cpuSeconds()
		if err != nil {
			return nil, err
		}
		replies, wall := runClients(sut.conns, w.seq[r], false)
		cpu1, err := sut.child.cpuSeconds()
		if err != nil {
			return nil, err
		}
		all = append(all, roundStats{wall: wall.Seconds(), cpu: cpu1 - cpu0, replies: replies})
		probe.run()
	}
	rss, err := sut.child.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Crash and recovery: SIGKILL, respawn on the same log, and the first
	// statement must return the pre-kill digest.
	res := &runResult{metrics: map[string]float64{}, correct: true}
	preKill, err := sut.conns[0].Query(stateDigest)
	if err != nil {
		return nil, fmt.Errorf("pre-kill digest: %w", err)
	}
	var recovers []float64
	for n := 0; n < setupRuns; n++ {
		sut.child.kill()
		secs, err := timeIt(func() error {
			var err error
			if sut.child, err = spawn(sut.walDir, cfg.seed, cfg.small); err != nil {
				return err
			}
			if sut.conns, err = sut.child.dial(1); err != nil {
				return err
			}
			post, err := sut.conns[0].Query(stateDigest)
			if err != nil {
				return err
			}
			if hashRows(post.Cols, post.Rows) != hashRows(preKill.Cols, preKill.Rows) {
				res.fail("recovery %d: state digest differs from the pre-kill digest", n)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recovers = append(recovers, secs)
		probe.run()
	}
	dump, err := sut.conns[0].Query(stateDump)
	if err != nil {
		return nil, fmt.Errorf("state dump: %w", err)
	}
	recovered := stateOf(dump.Rows)
	sut.stop()

	// Verification against the oracle, after the server is gone so the two
	// never compete for the cores.
	exp, err := expect(w, apbScale)
	if err != nil {
		return nil, err
	}
	if n := mismatches(warm, exp.warm); n > 0 {
		res.fail("%d warm-up replies failed or differ from the oracle", n)
	}
	if len(recovered) != len(exp.state) {
		res.fail("recovered table has %d channels, serial replay %d", len(recovered), len(exp.state))
	}
	for h, want := range exp.state {
		if got := recovered[h]; got != want {
			res.fail("channel %s after recovery: %d rows (hash %x), serial replay %d rows (hash %x)", h, got.rows, got.sum, want.rows, want.sum)
		}
	}

	// Per-round metrics over verified replies only; a failed operation
	// contributes no latency sample.
	shapeLat := make([][]float64, len(w.shapes))
	var tput, p50, p95, p99, cpuPer []float64
	for r, rs := range all {
		var lat []float64
		ok := 0
		for c, rep := range rs.replies {
			for i, rp := range rep {
				res.attempted++
				if rp.err != nil || rp.hash != exp.seq[r][c][i] {
					res.failed++
					if len(res.notes) < 5 {
						res.notes = append(res.notes, fmt.Sprintf("round %d client %d statement %d (%s): err=%v", r, c, i, w.shapes[w.seq[r][c][i].shape].name, rp.err))
					}
					continue
				}
				ok++
				lat = append(lat, ms(rp.latency))
				sh := w.seq[r][c][i].shape
				shapeLat[sh] = append(shapeLat[sh], ms(rp.latency))
			}
		}
		if ok == 0 {
			return nil, fmt.Errorf("round %d: no statement verified: %v", r, res.notes)
		}
		sort.Float64s(lat)
		tput = append(tput, float64(ok)/rs.wall)
		p50 = append(p50, percentile(lat, 50))
		p95 = append(p95, percentile(lat, 95))
		p99 = append(p99, percentile(lat, 99))
		cpuPer = append(cpuPer, rs.cpu*1000/float64(ok))
	}
	if res.failed > 0 {
		res.correct = false
	}
	// Times are reported at reference-host speed; rss_mb is not a time.
	scale := probe.scale()
	res.metrics["setup_s"] = median(setups) * scale
	res.metrics["stmt_per_s"] = median(tput) / scale
	res.metrics["p50_ms"] = median(p50) * scale
	res.metrics["p95_ms"] = median(p95) * scale
	res.metrics["cpu_ms_per_stmt"] = median(cpuPer) * scale
	res.metrics["rss_mb"] = rss
	res.metrics["recover_s"] = median(recovers) * scale
	fmt.Fprintf(cfg.log, "  host_speed %.3f (times below are wall-clock x this; 1 = the reference host in a quiet minute)\n", scale)
	fmt.Fprintf(cfg.log, "  probes_ms %s\n", fmtList(probe.seenMS()))
	fmt.Fprintf(cfg.log, "  raw: setup_s %s | recover_s %s | per round stmt_per_s %s | p50_ms %s | p95_ms %s | cpu_ms_per_stmt %s\n",
		fmtList(setups), fmtList(recovers), fmtList(tput), fmtList(p50), fmtList(p95), fmtList(cpuPer))

	// The report a person reads; the driver reads the JSON line after it.
	fmt.Fprintf(cfg.log, "  rounds: wall %s s, p99_ms %.3f (not gated), samples %d\n", fmtList(wallOf(all)), median(p99), res.attempted-res.failed)
	fmt.Fprintf(cfg.log, "  %-16s %7s %7s %7s %10s\n", "shape", "count", "share", "cum", "p50_ms")
	cum := 0.0
	for i, sh := range w.shapes {
		sort.Float64s(shapeLat[i])
		share := float64(len(shapeLat[i])) / float64(res.attempted-res.failed)
		cum += share
		p := 0.0
		if len(shapeLat[i]) > 0 {
			p = percentile(shapeLat[i], 50)
		}
		fmt.Fprintf(cfg.log, "  %-16s %7d %6.1f%% %6.1f%% %10.3f\n", sh.name, len(shapeLat[i]), share*100, cum*100, p)
	}
	if w.name == "dash_warm" {
		ws, err := workingSetMB(exp.dbs[0], w.warm[0])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.log, "  working_set_mb %.2f (cached result rows of the %d dashboard statements; the cache budget is 64)\n", ws, len(w.warm[0]))
	}
	for _, n := range res.notes {
		fmt.Fprintf(cfg.log, "  NOTE %s\n", n)
	}
	return res, nil
}

// workingSetMB sums the resident size of the statements' result rows by the
// plan cache's own accounting (blockstore.RowBytes).
func workingSetMB(db *sqlsheet.DB, seq []stmt) (float64, error) {
	var n int64
	for _, s := range seq {
		res, err := db.Query(s.sql)
		if err != nil {
			return 0, err
		}
		for _, row := range res.Rows {
			n += blockstore.RowBytes(row)
		}
	}
	return float64(n) / (1 << 20), nil
}

func perRound(w *workload) int {
	n := 0
	for _, seq := range w.seq[0] {
		n += len(seq)
	}
	return n
}

func wallOf(all []roundStats) []float64 {
	out := make([]float64, len(all))
	for i, r := range all {
		out[i] = r.wall
	}
	return out
}

func fmtList(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}

// mismatches counts replies that failed or whose hash is not the oracle's.
func mismatches(got [][]reply, want [][]uint64) int {
	n := 0
	for c := range got {
		for i, rp := range got[c] {
			if rp.err != nil || rp.hash != want[c][i] {
				n++
			}
		}
	}
	return n
}
