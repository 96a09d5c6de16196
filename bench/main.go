// Command bench is the repository's end-to-end benchmark: four APB serving
// workloads against a real server process over loopback TCP, every reply
// verified against an embedded oracle, plus a traced run that replays the
// same statements through each layer's public functions. See README.md.
//
//	go run ./bench -seed 7                      # all workloads, both runs
//	go run ./bench -workload scan_cold -trace 0 # one workload, end to end
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output for one workload and one mode.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := reportMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench report:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "seed for the dataset and every statement literal")
	seconds := flag.Int("seconds", 10, "target length of the five measured rounds together")
	trace := flag.Int("trace", -1, "0 = end-to-end run, 1 = traced per-layer run (default: both)")
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, outDir: filepath.Join("bench", "out"), log: os.Stdout}
	if _, err := os.Stat("bench"); err != nil {
		cfg.outDir = "out" // run from inside bench/
	}
	if err := run(cfg, *workload, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes the requested workloads and modes and prints the JSON line.
// With one workload and one mode that line is the driver's contract; with
// more it nests one such object per workload and mode.
func run(cfg config, workload string, trace int) error {
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	modes := []int{0, 1}
	if trace >= 0 {
		modes = []int{trace}
	}
	all := map[string]map[string]result{}
	var last result
	for _, name := range names {
		cfg.workload = name
		all[name] = map[string]result{}
		for _, mode := range modes {
			var res result
			var err error
			if mode == 0 {
				res, err = endToEnd(cfg)
			} else {
				res, err = traced(cfg)
			}
			if err != nil {
				return fmt.Errorf("%s trace=%d: %w", name, mode, err)
			}
			all[name][fmt.Sprintf("trace%d", mode)] = res
			last = res
		}
	}
	var line []byte
	var err error
	if len(names) == 1 && len(modes) == 1 {
		line, err = json.Marshal(last)
	} else {
		line, err = json.Marshal(map[string]any{"seed": cfg.seed, "seconds": cfg.seconds, "workloads": all})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "%s\n", line)
	return nil
}

// endToEnd runs one workload with tracing off and shapes the contract line.
func endToEnd(cfg config) (result, error) {
	r, err := runE2E(cfg)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
		fmt.Fprintf(cfg.log, "  %-18s %12.4f %-5s (regression bound %.0f%%)\n", m.name, r.metrics[m.name], m.unit, m.bound*100)
	}
	return res, nil
}

// metricDef names one metric; the lists below are mirrored in
// BENCHMARK.json (a test keeps them equal). The bounds are calibrated, not
// chosen: CALIBRATION.md shows run-to-run interquartile spreads of 4-13% on
// the shared reference host, and a bound has to be about three times the
// spread before a crossing means something. 25% is the most the benchmark
// contract allows.
type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: allowed worsening
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", 0.25},
	{"stmt_per_s", "1/s", 0.25},
	{"p50_ms", "ms", 0.25},
	{"p95_ms", "ms", 0.25},
	{"cpu_ms_per_stmt", "ms", 0.25},
	{"rss_mb", "MB", 0.25},
	{"recover_s", "s", 0.25},
}
