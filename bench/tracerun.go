package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sqlsheet"
	"sqlsheet/internal/wire"
)

// traceUnitsCap bounds the traced round: per-layer numbers are per-statement
// means and medians, which a few thousand statements settle, and every
// statement costs eight or so spans in the trace file.
const traceUnitsCap = 40

const (
	pingCount  = 1000
	probeCount = 200
)

// runTraced produces the per-layer metrics of one workload: one round
// against a real server for the numbers only a server has (ping, cache and
// WAL counters, protocol overhead), then the same statements through an
// embedded engine (the untraced reference) and through the pipeline replica
// (the spans).
func runTraced(cfg config) (*runResult, error) {
	w, data, scale, err := prepare(cfg, traceUnitsCap)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: traced run, %d statements\n", w.name, cfg.seed, perRound(w))
	res := &runResult{metrics: map[string]float64{}, correct: true}
	m := res.metrics

	// --- the server's own numbers ---
	sut, _, _, err := setup(cfg, w, 0)
	if err != nil {
		return nil, err
	}
	defer sut.stop()
	var pings []float64
	for i := 0; i < pingCount; i++ {
		start := time.Now()
		if err := sut.conns[0].Ping(); err != nil {
			return nil, err
		}
		pings = append(pings, float64(time.Since(start))/1e3)
	}
	m["client.ping_rtt_us"] = p50(pings)
	before, err := sut.child.metrics()
	if err != nil {
		return nil, err
	}
	replies, _ := runClients(sut.conns, w.seq[0], true)
	after, err := sut.child.metrics()
	if err != nil {
		return nil, err
	}
	selects, writes, userBytes := 0, 0, 0
	for _, seq := range w.seq[0] {
		for _, s := range seq {
			if w.shapes[s.shape].write {
				writes++
				userBytes += len(s.sql)
			} else {
				selects++
			}
		}
	}
	n := float64(selects + writes)
	rh := float64(after.Cache.ResultHits - before.Cache.ResultHits)
	ph := float64(after.Cache.PlanHits - before.Cache.PlanHits)
	pm := float64(after.Cache.PlanMisses - before.Cache.PlanMisses)
	m["plancache.result_hit_ratio"] = ratio(rh, float64(selects))
	// A result hit never consults the plan, so it counts as a plan hit too.
	m["plancache.plan_hit_ratio"] = ratio(ph+rh, ph+pm+rh)
	m["plancache.struct_hit_ratio"] = ratio(float64(after.Cache.StructReuses-before.Cache.StructReuses), float64(selects)-rh)
	m["plancache.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	if before.WAL == nil || after.WAL == nil {
		return nil, fmt.Errorf("server reports no WAL counters")
	}
	walBytes := float64(after.WAL.BytesWritten - before.WAL.BytesWritten)
	m["wal.bytes_per_stmt"] = walBytes / n
	m["wal.write_amp"] = ratio(walBytes, float64(userBytes))
	m["wal.fsyncs_per_stmt"] = float64(after.WAL.Fsyncs-before.WAL.Fsyncs) / n

	// Protocol overhead: one warm statement over the wire against the same
	// statement on the embedded engine below.
	probe := firstSelect(w)
	var rtts []float64
	for i := 0; i <= probeCount; i++ {
		start := time.Now()
		if _, err := sut.conns[0].Query(probe); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		if i > 0 { // the first execution fills the cache
			rtts = append(rtts, float64(time.Since(start))/1e3)
		}
	}
	sut.child.kill()
	replaySecs, _, err := measureWALReplay(sut.walDir)
	if err != nil {
		return nil, err
	}
	m["wal.replay_s"] = replaySecs
	sut.stop()

	// --- the embedded reference (the same statements, no tracing) and the
	// pipeline replica (the same statements, a span per layer call) ---
	refDir, err := tempDir(cfg, "ref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(refDir)
	ref := sqlsheet.Open()
	ref.Configure(sqlsheet.Config{Workers: 0, Parallel: runtime.NumCPU()})
	if err := ref.EnableWAL(refDir, sqlsheet.SyncGroup); err != nil {
		return nil, err
	}
	defer ref.Close()
	if m["apb.install_s"], err = timeIt(func() error { _, err := ref.InstallAPB(scale); return err }); err != nil {
		return nil, err
	}
	for _, seq := range w.warm {
		for _, s := range seq {
			if _, err := ref.Exec(s.sql); err != nil {
				return nil, fmt.Errorf("reference warm-up: %w", err)
			}
		}
	}
	pipeDir, err := tempDir(cfg, "pipe")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pipeDir)
	tr := newTracer()
	pipe, err := newPipeline(data, pipeDir, tr)
	if err != nil {
		return nil, err
	}
	defer pipe.close()
	for _, seq := range w.warm {
		for _, s := range seq {
			if _, err := pipe.handle(wire.EncodeQuery(s.sql)); err != nil {
				return nil, fmt.Errorf("pipeline warm-up: %w\nstatement: %s", err, s.sql)
			}
		}
	}
	// The measured statements go through the reference and the replica
	// back to back, so that a change in the host's speed between the two
	// cannot pass for a difference between them.
	firstStmt := tr.stmt + 1
	differ := 0
	var refMS float64
	for c, seq := range w.seq[0] {
		for i, s := range seq {
			start := time.Now()
			got, err := ref.Exec(s.sql)
			refMS += ms(time.Since(start))
			if err != nil {
				return nil, fmt.Errorf("reference: %w", err)
			}
			res.attempted++
			if rp := replies[c][i]; rp.err != nil || rp.hash != hashRows(got.Columns, got.Rows) {
				res.failed++
			}
			payload, err := pipe.handle(wire.EncodeQuery(s.sql))
			if err != nil {
				return nil, fmt.Errorf("pipeline: %w\nstatement: %s", err, s.sql)
			}
			if !bytes.Equal(payload, replies[c][i].frame) {
				differ++
			}
		}
	}
	endStmt := tr.stmt + 1
	var warmQ []float64
	for i := 0; i <= probeCount; i++ {
		start := time.Now()
		if _, err := ref.Query(probe); err != nil {
			return nil, err
		}
		if i > 0 {
			warmQ = append(warmQ, float64(time.Since(start))/1e3)
		}
	}
	m["plancache.warm_query_us"] = p50(warmQ)
	m["server.overhead_us"] = p50(rtts) - p50(warmQ)
	if m["wal.checkpoint_s"], err = timeIt(ref.Checkpoint); err != nil {
		return nil, err
	}

	if differ > 0 {
		res.fail("%d of %d replies of the pipeline replica differ from the server's bytes", differ, res.attempted)
	}
	if res.failed > 0 {
		res.fail("%d of %d server replies failed or differ from the embedded engine's", res.failed, res.attempted)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	// --- per-layer numbers from the spans ---
	self := tr.selfTimes(firstStmt, endStmt)
	round := func(v []float64) []float64 { return v[firstStmt-1 : endStmt-1] }
	inputMS, rulesMS := sum(round(pipe.inputMS)), sum(round(pipe.rulesMS))
	perStmt := func(ns float64) float64 { return ns / 1e6 / n }
	m["server.self_ms_per_stmt"] = perStmt(self["server"])
	m["wire.self_ms_per_stmt"] = perStmt(self["wire"])
	m["parser.self_ms_per_stmt"] = perStmt(self["parser"])
	m["plancache.self_ms_per_stmt"] = perStmt(self["plancache"])
	m["plan.self_ms_per_stmt"] = perStmt(self["plan"])
	m["catalog.self_ms_per_stmt"] = perStmt(self["catalog"])
	m["wal.self_ms_per_stmt"] = perStmt(self["wal"])
	// Execute does not delimit the input scan (exec work inside the
	// core.input_and_build span) nor the rule evaluation (core work inside
	// exec.execute); the replays measured both, so move them across.
	m["exec.self_ms_per_stmt"] = perStmt(self["exec"]) + (inputMS-rulesMS)/n
	m["core.build_ms_per_stmt"] = perStmt(self["core"]) - inputMS/n
	m["core.rules_ms_per_stmt"] = rulesMS / n
	m["core.self_ms_per_stmt"] = m["core.build_ms_per_stmt"] + m["core.rules_ms_per_stmt"]
	m["core.cells_per_stmt"] = sum(round(pipe.cells)) / n
	m["core.vectorized_rule_ratio"] = ratio(float64(pipe.rulesVec), float64(pipe.rulesAll))
	m["wire.decode_us"] = p50(tr.durations("wire.decode_request", firstStmt, endStmt))
	enc := tr.durations("wire.encode_result", firstStmt, endStmt)
	for i, d := range tr.durations("wire.decode_response", firstStmt, endStmt) {
		enc[i] += d
	}
	m["wire.encode_us"] = p50(enc)
	m["wire.result_bytes_per_stmt"] = sum(round(pipe.resultBytes)) / n
	m["parser.fingerprint_us"] = p50(tr.durations("parser.fingerprint", firstStmt, endStmt))
	m["parser.parse_us"] = p50(tr.durations("parser.parse", firstStmt, endStmt))
	m["plan.build_us"] = p50(tr.durations("plan.build", firstStmt, endStmt))
	m["wal.append_us"] = p50(tr.durations("wal.append", firstStmt, endStmt))
	m["wal.commit_us"] = p50(tr.durations("wal.commit", firstStmt, endStmt))
	var scanRatios []float64
	for _, r := range round(pipe.scanRatio) {
		if r >= 0 { // writes carry -1
			scanRatios = append(scanRatios, r)
		}
	}
	m["exec.rows_scanned_per_row_out"] = ratio(sum(scanRatios), float64(len(scanRatios)))
	engine := self["parser"] + self["plancache"] + self["plan"] + self["exec"] + self["core"] + self["catalog"] + self["wal"]
	m["trace.coverage"] = engine / 1e6 / refMS
	m["trace.overhead_ratio"] = sum(round(pipe.elapsed)) / refMS
	// The ratio is asserted where a statement is long enough for it to mean
	// something. Below a millisecond per statement (dash_warm's cache hits)
	// the spans' own bookkeeping is a visible share of the numerator, and
	// the smoke run's five statements beside other test packages are noise,
	// so there it is reported only.
	if c := m["trace.coverage"]; !cfg.small && refMS/n >= 1 && (c < coverageLow || c > coverageHigh) {
		res.fail("trace.coverage %.3f is outside %.2f-%.2f: the pipeline replica is not doing the engine's work", c, coverageLow, coverageHigh)
	}

	micro, err := measureMicro(data)
	if err != nil {
		return nil, err
	}
	m["colstore.image_build_ms"] = micro.imageBuildMS
	m["eval.sel_ns_per_row"] = micro.selNSPerRow
	m["eval.expr_ns_per_row"] = micro.exprNSPerRow
	m["catalog.insert_us_per_row"] = micro.insertUSPerRow
	m["mvcc.publish_us"] = micro.publishUS
	for _, n := range res.notes {
		fmt.Fprintf(cfg.log, "  NOTE %s\n", n)
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// firstSelect is the first read of the workload's warm-up: the statement the
// protocol-overhead probe repeats.
func firstSelect(w *workload) string {
	for _, s := range w.warm[0] {
		if !w.shapes[s.shape].write {
			return s.sql
		}
	}
	return stateDigest
}

// traced runs one workload's traced run and shapes the contract line.
func traced(cfg config) (result, error) {
	r, err := runTraced(cfg)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
		fmt.Fprintf(cfg.log, "  %-32s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	return res, nil
}

// tempDir makes a fresh directory under the run's scratch directory.
func tempDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s-%d", name, cfg.workload, os.Getpid()))
	os.RemoveAll(dir)
	return dir, os.MkdirAll(dir, 0o755)
}
