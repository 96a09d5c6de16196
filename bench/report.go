package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// reportMain summarises a directory of end-to-end result lines (one file
// per run, named <workload>.<seed>.json, as calibrate.sh writes them) as
// the markdown table of CALIBRATION.md: per metric and workload the median,
// the extremes, the largest deviation from the median and the interquartile
// spread, each against the metric's bound.
func reportMain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: bench report <dir>")
	}
	return report(os.Stdout, args[0])
}

// quartiles are Python's statistics.quantiles(v, n=4): the method the
// benchmark driver uses for its spread check.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(len(s)+1) * float64(k) / 4
		j := int(pos)
		j = max(1, min(j, len(s)-1))
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(3)
}

func report(out io.Writer, dir string) error {
	values := map[string]map[string][]float64{} // workload -> metric -> runs
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("%s: run was not correct (%d of %d operations failed)", f, res.Failed, res.Attempted)
		}
		name := strings.SplitN(filepath.Base(f), ".", 2)[0]
		if values[name] == nil {
			values[name] = map[string][]float64{}
		}
		for metric, v := range res.Metrics {
			values[name][metric] = append(values[name][metric], v.Value)
		}
	}
	fmt.Fprintln(out, "| workload | metric | unit | runs | median | min | max | max dev / median | IQR / median | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|---|")
	for _, name := range workloadNames {
		for _, m := range endToEndMetrics {
			v := values[name][m.name]
			if len(v) < 2 {
				continue
			}
			med := median(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			dev := math.Max(med-lo, hi-med) / med
			q1, q3 := quartiles(v)
			iqr := (q3 - q1) / med
			// The driver gates the interquartile spread; a third of the
			// bound is the margin the benchmark aims for.
			verdict := "ok"
			switch {
			case iqr > m.bound:
				verdict = "TOO NOISY"
			case iqr > m.bound/3:
				verdict = "over a third of the bound"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %d | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				name, m.name, m.unit, len(v), med, lo, hi, dev*100, iqr*100, m.bound*100, verdict)
		}
	}
	return nil
}
