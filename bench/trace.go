package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans of one statement share
// Stmt; Parent is the span that caused this one (0 for a statement's root
// span and for replay spans). Times are nanoseconds since the traced run
// began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"` // "<layer>.<what>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string { return s.Name[:strings.IndexByte(s.Name, '.')] }
func (s span) dur() int64    { return s.End - s.Start }

// tracer records spans in memory; the traced run is single-threaded, so the
// open spans form a stack and the top of it is the parent of the next one.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans
	stmt  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: t.stmt, Name: name,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic("bench: trace spans closed out of order") // a bug in the pipeline replica
	}
	t.open = t.open[:len(t.open)-1]
}

// in times fn as a span.
func (t *tracer) in(name string, fn func()) {
	i := t.begin(name)
	fn()
	t.end(i)
}

// write stores the spans as JSON: name, start, end, parent and statement id
// for every span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per layer, each span's duration minus the part its direct
// children cover, over the statements in [fromStmt, toStmt).
func (t *tracer) selfTimes(fromStmt, toStmt int) map[string]float64 {
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.Stmt >= fromStmt && s.Stmt < toStmt {
			out[s.layer()] += float64(s.dur() - child[s.ID])
		}
	}
	return out
}

// durations returns the durations in microseconds of the spans called name,
// over the statements in [fromStmt, toStmt).
func (t *tracer) durations(name string, fromStmt, toStmt int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Stmt >= fromStmt && s.Stmt < toStmt {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// p50 is the median of v, 0 when v is empty (a layer the workload never
// entered reports 0, not a gap).
func p50(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// perLayerMetrics is the fixed list the traced run prints for every
// workload, mirrored in BENCHMARK.json (a test keeps them equal).
var perLayerMetrics = []metricDef{
	{name: "client.ping_rtt_us", unit: "us"},
	{name: "server.overhead_us", unit: "us"},
	{name: "server.self_ms_per_stmt", unit: "ms"},
	{name: "wire.decode_us", unit: "us"},
	{name: "wire.encode_us", unit: "us"},
	{name: "wire.result_bytes_per_stmt", unit: "B"},
	{name: "wire.self_ms_per_stmt", unit: "ms"},
	{name: "parser.fingerprint_us", unit: "us"},
	{name: "parser.parse_us", unit: "us"},
	{name: "parser.self_ms_per_stmt", unit: "ms"},
	{name: "plancache.result_hit_ratio", unit: "ratio"},
	{name: "plancache.plan_hit_ratio", unit: "ratio"},
	{name: "plancache.struct_hit_ratio", unit: "ratio"},
	{name: "plancache.evictions", unit: "count"},
	{name: "plancache.warm_query_us", unit: "us"},
	{name: "plancache.self_ms_per_stmt", unit: "ms"},
	{name: "plan.build_us", unit: "us"},
	{name: "plan.self_ms_per_stmt", unit: "ms"},
	{name: "exec.self_ms_per_stmt", unit: "ms"},
	{name: "exec.rows_scanned_per_row_out", unit: "ratio"},
	{name: "eval.sel_ns_per_row", unit: "ns"},
	{name: "eval.expr_ns_per_row", unit: "ns"},
	{name: "colstore.image_build_ms", unit: "ms"},
	{name: "core.build_ms_per_stmt", unit: "ms"},
	{name: "core.rules_ms_per_stmt", unit: "ms"},
	{name: "core.self_ms_per_stmt", unit: "ms"},
	{name: "core.vectorized_rule_ratio", unit: "ratio"},
	{name: "core.cells_per_stmt", unit: "count"},
	{name: "catalog.insert_us_per_row", unit: "us"},
	{name: "catalog.self_ms_per_stmt", unit: "ms"},
	{name: "mvcc.publish_us", unit: "us"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.commit_us", unit: "us"},
	{name: "wal.self_ms_per_stmt", unit: "ms"},
	{name: "wal.bytes_per_stmt", unit: "B"},
	{name: "wal.write_amp", unit: "ratio"},
	{name: "wal.fsyncs_per_stmt", unit: "count"},
	{name: "wal.replay_s", unit: "s"},
	{name: "wal.checkpoint_s", unit: "s"},
	{name: "apb.install_s", unit: "s"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// coverageLow/High bound trace.coverage: outside them the pipeline replica
// is not doing the work the engine does, and the per-layer split means
// nothing. The replica and the reference run each statement back to back,
// yet on the shared reference host the ratio of the same code still moves
// between 0.90 and 1.12 from run to run; the band leaves room for that and
// still catches a replica that skips or repeats a layer (build and rules are
// each a quarter or more of a cold statement).
const (
	coverageLow  = 0.8
	coverageHigh = 1.25
)
