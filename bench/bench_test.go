package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The server under test is this binary re-executed in serve mode; under
// `go test` that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		gen := func(seed int64) uint64 {
			w, err := generate(name, seed, datasetFor(smallScale(seed)), 3)
			if err != nil {
				t.Fatal(err)
			}
			return w.sequenceHash()
		}
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("%s: seed 7 gave sequence hashes %x and %x", name, a, b)
		}
		if a, b := gen(7), gen(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestShapeShares pins every workload's statement mix to the shares its
// shape list declares, in every round: the percentile rule rests on them.
func TestShapeShares(t *testing.T) {
	for _, name := range workloadNames {
		w, err := generate(name, 11, datasetFor(fullScale(11)), 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.seq) != rounds {
			t.Fatalf("%s: %d rounds, want %d", name, len(w.seq), rounds)
		}
		total := 0.0
		for _, sh := range w.shapes {
			total += sh.share
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v", name, total)
		}
		for r, per := range w.seq {
			if len(per) != w.clients {
				t.Fatalf("%s round %d: %d sequences for %d clients", name, r, len(per), w.clients)
			}
			counts := make([]int, len(w.shapes))
			n := 0
			for _, seq := range per {
				for _, s := range seq {
					counts[s.shape]++
					if w.shapes[s.shape].share > 0 {
						n++
					}
				}
			}
			for i, sh := range w.shapes {
				if sh.share == 0 {
					// Housekeeping outside the mix: once per client and round.
					if counts[i] != w.clients {
						t.Errorf("%s round %d: %d %s statements, want %d", name, r, counts[i], sh.name, w.clients)
					}
					continue
				}
				if got := float64(counts[i]) / float64(n); math.Abs(got-sh.share) > 1e-12 {
					t.Errorf("%s round %d: shape %s has share %v, want %v", name, r, sh.name, got, sh.share)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to statistics.quantiles.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; statistics.quantiles(range(1, 11), n=4) gives 2.75, 8.25", q1, q3)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeMatchesContract boots the server child on the smoke dataset, runs
// every workload in both modes for one round — recovery after SIGKILL, the
// oracle comparison of every reply and the traced run's byte comparison
// included — and checks the printed JSON line against BENCHMARK.json: the
// contract's four keys, and exactly the listed metric names and units.
func TestSmokeMatchesContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	want := [2]map[string]string{{}, {}} // mode -> metric -> unit
	for i, m := range bf.EndToEnd {
		want[0][m.Name] = m.Unit
		if d := endToEndMetrics[i]; d.name != m.Name || d.unit != m.Unit || d.bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
	for _, m := range bf.PerLayer {
		want[1][m.Name] = m.Unit
	}
	if len(want[1]) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(want[1]), len(perLayerMetrics))
	}

	for i, wl := range bf.Workloads {
		if wl.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, wl.Name, workloadNames[i])
		}
		for mode := 0; mode <= 1; mode++ {
			var out bytes.Buffer
			cfg := config{seed: 5, seconds: 1, small: true, outDir: t.TempDir(), log: &out}
			if err := run(cfg, wl.Name, mode); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", wl.Name, mode, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", wl.Name, mode, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace=%d: result has %d keys, want correct, attempted, failed, metrics", wl.Name, mode, len(raw))
			}
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", wl.Name, mode, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want[mode]) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json lists %d", wl.Name, mode, len(res.Metrics), len(want[mode]))
			}
			for name, v := range res.Metrics {
				if unit, ok := want[mode][name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%d: metric %s (%s) is not in BENCHMARK.json with that unit", wl.Name, mode, name, v.Unit)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.outDir, "*-"+wl.Name+"-*")); len(left) > 0 {
				t.Errorf("%s trace=%d: run left %v behind", wl.Name, mode, left)
			}
			if mode == 1 {
				checkTraceFile(t, filepath.Join(cfg.outDir, "trace-"+wl.Name+".json"))
			}
		}
	}
}

// checkTraceFile requires every span to carry a name, a start and an end in
// order, a statement id, and a parent that is an earlier span of the same
// statement (or none).
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Stmt < 1 || !strings.Contains(s.Name, ".") || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent != 0 {
			if s.Parent >= s.ID {
				t.Fatalf("%s: span %d has later parent %d", path, s.ID, s.Parent)
			}
			if p := spans[s.Parent-1]; p.Stmt != s.Stmt || p.Start > s.Start || p.End < s.End {
				t.Fatalf("%s: span %+v does not lie inside its parent %+v", path, s, p)
			}
		}
	}
}
