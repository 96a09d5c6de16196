package core

import (
	"fmt"
	"testing"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/types"
)

// benchRuleRows builds the batch-rule benchmark workload: 10 partitions of
// 10,000 cells each (10 products x 1000 years), a populated source measure
// and zero-filled targets.
func benchRuleRows(nmea int) []types.Row {
	rows := make([]types.Row, 0, 100000)
	for ri := 0; ri < 10; ri++ {
		r := fmt.Sprintf("r%02d", ri)
		for pi := 0; pi < 10; pi++ {
			p := fmt.Sprintf("p%d", pi)
			for t := 1000; t < 2000; t++ {
				row := types.Row{V(r), V(p), V(t), V(float64(t-1000)*0.5 + float64(pi))}
				for len(row) < 3+nmea {
					row = append(row, V(0.0))
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// benchRuleLegs times rule application — evalFrame over prebuilt
// partitions — under the batch rule engine and under the per-cell
// interpreter. Partition building, which both paths share unchanged, stays
// outside the loop; one warm-up pass performs any UPSERT inserts so every
// timed iteration applies the rules over an identical, settled frame set
// (rules recompute their targets from the untouched source measure, so
// repeated application is idempotent).
//
// With cold set, every iteration instead evaluates a fresh CloneForReuse of
// the pristine structure, built sharing its input rows — what a cold
// statement's rule phase does on the serving path — so every cell write is a
// first write and -benchmem reports the write path's allocation.
func benchRuleLegs(b *testing.B, sql string, rows []types.Row, cold bool) {
	legs := []struct {
		name string
		opts RunOptions
	}{
		{"vectorized", RunOptions{}},
		{"interpreted", RunOptions{Ablate: Ablation{DisableVectorizedRules: true}}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			m := mustModel(b, sql, nil)
			if err := m.Analyze(); err != nil {
				b.Fatal(err)
			}
			if err := m.prepareForIn(nil); err != nil {
				b.Fatal(err)
			}
			m.buildCompiled()
			m.buildVecRules()
			pristine, err := BuildPartitionsOpts(m, rows, 1,
				func() blockstore.Store { return blockstore.NewMem() }, BuildOptions{ShareRows: cold})
			if err != nil {
				b.Fatal(err)
			}
			defer pristine.Close()
			opts := leg.opts
			fe := m.newFrameEval(&opts)
			evalAll := func() {
				ps := pristine
				if cold {
					ps = pristine.CloneForReuse()
				}
				for _, bk := range ps.buckets {
					if err := fe.evalBucket(bk); err != nil {
						b.Fatal(err)
					}
				}
			}
			evalAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evalAll()
			}
		})
	}
}

// BenchmarkSpreadsheetRulesExistential measures existential formulas over
// every cell of a 100k-row working set: each target fires point probes into
// neighbouring cells (cv(t)-1 ... cv(t)-4). The batch path snapshots each
// partition once (cached columns thereafter), compiles each right side to
// one expression kernel, resolves all probes through bulk LookupBatch sweeps
// and writes back columnarly; the per-cell leg evaluates the formula tree
// and re-encodes probe keys target by target.
func BenchmarkSpreadsheetRulesExistential(b *testing.B) {
	benchRuleLegs(b, `SELECT r, p, t, s, u, v FROM rb
		SPREADSHEET PBY(r) DBY (p, t) MEA (s, u, v)
		( UPDATE u[*, *] = s[cv(p), cv(t)] * 1.1 + s[cv(p), cv(t) - 1] * 0.25,
		  UPDATE v[p IN ('p0','p1','p2','p3','p4'), t > 1200] =
			s[cv(p), cv(t) - 2] * 0.5 - s[cv(p), cv(t) - 3] / 8,
		  UPDATE v[*, t > 1100] = s[cv(p), cv(t)] * 1.01 - s[cv(p), cv(t) - 4] )`, benchRuleRows(3), false)
}

// BenchmarkSpreadsheetRulesPointHeavy measures left-side FOR loops: 11,000
// explicit targets per partition (10,000 updated in place, 1,000 upserted by
// the warm-up pass), each reading the source measure through the bulk probe.
func BenchmarkSpreadsheetRulesPointHeavy(b *testing.B) {
	benchRuleLegs(b, `SELECT r, p, t, s, u FROM rb
		SPREADSHEET PBY(r) DBY (p, t) MEA (s, u)
		( UPSERT u[FOR p IN ('p0','p1','p2','p3','p4','p5','p6','p7','p8','p9'),
			FOR t FROM 1000 TO 2099] =
			s[cv(p), cv(t)] * 2 + s[cv(p), cv(t) - 1] * 0.5 + s[cv(p), cv(t) - 2] / 4 + 1 )`, benchRuleRows(2), false)
}

// BenchmarkSpreadsheetRulesCubeCold is the benchmark's cube_rules shape run
// cold: six existential rules, each writing its own measure of every cell of
// a 96-partition, 22k-cell slice (11-column rows), over a fresh clone of the
// cached structure per iteration. allocs/op and B/op are the numbers to
// watch: one row copy per cell, not one per cell per rule.
func BenchmarkSpreadsheetRulesCubeCold(b *testing.B) {
	rows := make([]types.Row, 0, 96*230)
	for h := 0; h < 4; h++ {
		for t := 0; t < 24; t++ {
			for p := 0; p < 230; p++ {
				name := fmt.Sprintf("P%03d", p)
				if p == 0 {
					name = "TOP"
				}
				rows = append(rows, types.Row{V("c1"), V(fmt.Sprintf("h%d", h)), V(fmt.Sprintf("1995-%02d", t)), V(name),
					V(float64(p*7+t+1) * 0.5), V(0.0), V(0.0), V(0.0), V(0.0), V(0.0), V(0.0)})
			}
		}
	}
	benchRuleLegs(b, `SELECT c, h, t, p, s, share_1, share_2, share_3, share_4, share_5, share_6 FROM cube
		SPREADSHEET PBY (c, h, t) DBY (p) MEA (s, share_1, share_2, share_3, share_4, share_5, share_6)
		RULES UPDATE ( F1: share_1[*] = s[cv(p)] / s['P001'], F2: share_2[*] = s[cv(p)] / s['P002'],
		  F3: share_3[*] = s[cv(p)] / s['P003'], F4: share_4[*] = s[cv(p)] * 1.7,
		  F5: share_5[*] = share_1[cv(p)] + share_2[cv(p)], F6: share_6[*] = s[cv(p)] / s['TOP'] )`, rows, true)
}
