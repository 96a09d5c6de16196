package core

import (
	"math"
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

// vecGridSQL is the shared working schema for the batch-rule tests: two
// partitions of 4 products x 30 years with a populated measure (s), a
// zero-filled target (u) and an all-NULL measure (z).
const vecGridSQL = `SELECT r, p, t, s, u, z FROM f
	SPREADSHEET PBY (r) DBY (p, t) MEA (s, u, z) `

func vecGridRows() []types.Row {
	var rows []types.Row
	for ri, r := range []string{"east", "west"} {
		for pi, p := range []string{"tv", "vcr", "dvd", "amp"} {
			for t := 1980; t <= 2009; t++ {
				s := float64(t-1979)*1.5 + float64(pi)*7.25 + float64(ri)*1000
				rows = append(rows, R(r, p, t, s, 0.0, nil))
			}
		}
	}
	return rows
}

// vecRefSQL is vecGridSQL with a reference sheet on products: par names
// another product (or one the grid lacks, or NULL), w is a weight (NULL for
// one product, absent for another).
const vecRefSQL = `SELECT r, p, t, s, u, z FROM f
	SPREADSHEET REFERENCE pr ON (SELECT p, par, w FROM d) DBY (p) MEA (par, w)
	PBY (r) DBY (p, t) MEA (s, u, z) `

func vecRefData() map[string][]types.Row {
	return map[string][]types.Row{"pr": {
		R("tv", "vcr", 2.0),
		R("vcr", "dvd", nil),
		R("dvd", nil, 0.5),
		R("laser", "tv", 4.0),
	}}
}

// sameCells requires bit-identical results from the two paths (NaN-safe:
// floats compare by bits, not ==).
func sameCells(t *testing.T, got, want map[string]types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row count: batch=%d row-path=%d", len(got), len(want))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Fatalf("batch produced extra key %q", k)
		}
		if len(g) != len(w) {
			t.Fatalf("key %q: width %d vs %d", k, len(g), len(w))
		}
		for i := range g {
			if g[i].K != w[i].K || g[i].I != w[i].I || g[i].S != w[i].S ||
				math.Float64bits(g[i].F) != math.Float64bits(w[i].F) {
				t.Fatalf("key %q col %d: batch=%v row-path=%v", k, i, g[i], w[i])
			}
		}
	}
}

// TestVectorizedRulesMatchRowPath drives each rule shape through the batch
// path (cutoff forced to 1) and the per-cell path, requiring bit-identical
// frames. Cases marked batch=true must actually take the batch path at least
// once; batch=false cases document fallbacks that must stay on the row path.
func TestVectorizedRulesMatchRowPath(t *testing.T) {
	cases := []struct {
		name  string
		rules string
		batch bool
	}{
		// Reference-sheet reads (the ref: cases run over vecRefSQL).
		{"ref:nested",
			`( UPDATE u[*, *] = s[cv(p), cv(t)] / s[par[cv(p)], cv(t)] )`, true},
		{"ref:qualified",
			`( UPDATE u[*, t > 1990] = w[cv(p)] * s[pr.par[cv(p)], cv(t) - 1] )`, true},
		{"ref:ls-nested",
			`( UPSERT u[FOR p IN ('tv','vcr','dvd','amp'), FOR t FROM 2005 TO 2012] = s[par[cv(p)], cv(t)] + pr.w[cv(p)] )`, true},
		{"existential-update",
			`( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5 + s[cv(p), cv(t) - 1] )`, true},
		{"existential-range",
			`( UPDATE u['dvd', 1990 <= t <= 2005] = s[cv(p), cv(t)] + 100 )`, true},
		{"existential-pred-quals",
			`( UPDATE u[p IN ('tv','vcr'), t > 1990] = s[cv(p), cv(t)] / 2 - 1 )`, true},
		{"existential-agg",
			`( UPDATE u['tv', t > 2000] = s[cv(p), cv(t)] - min(s)['tv', 1980 <= t <= 1999] )`, true},
		{"all-null-read",
			`( UPDATE u[*, *] = z[cv(p), cv(t)] )`, true},
		{"ls-for-update",
			`( UPDATE u[FOR p IN ('tv','vcr','dvd','amp'), FOR t FROM 1980 TO 2009] = s[cv(p), cv(t)] * 1.01 + 1 )`, true},
		{"ls-for-upsert",
			`( UPSERT u[FOR p IN ('tv','vcr'), FOR t FROM 2010 TO 2030] = s[cv(p), cv(t) - 30] * 2 )`, true},
		{"ls-agg-rhs",
			`( UPDATE u['tv', 2005] = min(s)['tv', 1992 <= t <= 2001] + s['tv', 2004] )`, true},
		{"ls-agg-maintained",
			`( UPDATE u['tv', 2005] = avg(s)['tv', 1992 <= t <= 2001] + s['tv', 2004] )`, false},
		{"cv-agg-fallback",
			`( UPDATE u[*, *] = avg(s)[cv(p), 1990 <= t <= 1999] )`, false},
		{"cyclic-fallback",
			`( UPDATE s[*, t > 1985] = s[cv(p), cv(t) - 1] * 1.1 )`, false},
		{"self-read-fallback",
			`( UPDATE s['tv', 2005] = s['tv', 1980] * 2 )`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := &VecStats{}
			head, refs := vecGridSQL, map[string][]types.Row(nil)
			if strings.HasPrefix(tc.name, "ref:") {
				head, refs = vecRefSQL, vecRefData()
			}
			mb := mustModel(t, head+tc.rules, refs)
			batch := run(t, mb, vecGridRows(), RunOptions{Ablate: Ablation{VecMinRows: 1}, Stats: stats})
			mr := mustModel(t, head+tc.rules, refs)
			rowp := run(t, mr, vecGridRows(), RunOptions{Ablate: Ablation{DisableVectorizedRules: true}})
			sameCells(t, batch, rowp)
			if tc.batch && stats.RuleBatch.Load() == 0 {
				t.Fatalf("expected batch rule applications, stats=%+v notes=%v",
					stats, mb.RuleVecNotes(false))
			}
			if !tc.batch && stats.RuleBatch.Load() != 0 {
				t.Fatalf("expected row-path fallback, got %d batch applications",
					stats.RuleBatch.Load())
			}
		})
	}
}

// TestVectorizedRulesErrorParity checks that a batch-stage runtime error
// (division by zero) falls back to the row path, which raises the same error
// the interpreter always raised — no writes are lost or doubled before it.
func TestVectorizedRulesErrorParity(t *testing.T) {
	const rules = `( UPDATE u[*, *] = s[cv(p), cv(t)] / (s[cv(p), cv(t)] - s[cv(p), cv(t)]) )`
	mb := mustModel(t, vecGridSQL+rules, nil)
	_, _, errB := mb.Run(vecGridRows(), RunOptions{Ablate: Ablation{VecMinRows: 1}})
	mr := mustModel(t, vecGridSQL+rules, nil)
	_, _, errR := mr.Run(vecGridRows(), RunOptions{Ablate: Ablation{DisableVectorizedRules: true}})
	if errB == nil || errR == nil {
		t.Fatalf("expected division-by-zero on both paths, batch=%v row=%v", errB, errR)
	}
	if errB.Error() != errR.Error() {
		t.Fatalf("error text diverged:\n  batch: %v\n  row:   %v", errB, errR)
	}
}

// TestVecMinRowsCutoff pins the VecMinRows knob for existential rules: it
// counts the rows of every partition of a bucket, so a bucket below the
// cutoff stays on the per-cell path and one at or above it fires the rule as
// one batch — ticking RuleBatch once per partition — and both produce
// identical frames.
func TestVecMinRowsCutoff(t *testing.T) {
	const rules = `( UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + 1 )`
	// Two partitions of 120 rows in one bucket.
	small := &VecStats{}
	ms := mustModel(t, vecGridSQL+rules, nil)
	under := run(t, ms, vecGridRows(), RunOptions{Ablate: Ablation{Buckets: 1, VecMinRows: 241}, Stats: small})
	if small.RuleBatch.Load() != 0 || small.RuleRow.Load() != 2 {
		t.Fatalf("cutoff 241 over a 240-row bucket: stats=%+v", small)
	}
	big := &VecStats{}
	mbig := mustModel(t, vecGridSQL+rules, nil)
	over := run(t, mbig, vecGridRows(), RunOptions{Ablate: Ablation{Buckets: 1, VecMinRows: 240}, Stats: big})
	if big.RuleRow.Load() != 0 || big.RuleBatch.Load() != 2 {
		t.Fatalf("cutoff 240 over a 240-row bucket: stats=%+v", big)
	}
	sameCells(t, over, under)
}

// TestRuleVecNotes pins the static per-rule EXPLAIN notes.
func TestRuleVecNotes(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		want []string
	}{
		{"yes",
			vecGridSQL + `( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5 )`,
			[]string{"yes"}},
		{"iterate",
			`SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) ITERATE (3)
				( s[1980] = s[1980] / 2 )`,
			[]string{"no(iterate)"}},
		{"cv-qualifier",
			vecGridSQL + `( UPDATE u[*, *] = avg(s)[cv(p), 1990 <= t <= 1999] )`,
			[]string{"no(cv-qualifier)"}},
		{"cyclic",
			vecGridSQL + `( UPDATE s[*, t > 1985] = s[cv(p), cv(t) - 1] )`,
			[]string{"no(cyclic)"}},
		{"self-read",
			vecGridSQL + `( UPDATE s['tv', 2005] = s['tv', 1980] * 2 )`,
			[]string{"no(self-read)"}},
		{"unsupported-expr",
			vecGridSQL + `( UPDATE u['tv', 2005] = CASE WHEN s['tv', 2004] > 1 THEN 1 ELSE 2 END )`,
			[]string{"no(unsupported-expr)"}},
		{"mixed",
			vecGridSQL + `( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5,
				UPDATE s['tv', 2005] = s['tv', 1980] * 2 )`,
			[]string{"yes", "no(self-read)"}},
		// A reference-sheet read, unqualified or sheet-qualified, on the right
		// side or inside a main-sheet reference's qualifier (the paper's S5
		// and S1 shapes): two chained gathers.
		{"nested-ref",
			vecRefSQL + `( UPDATE u[*, *] = s[cv(p), cv(t)] / s[par[cv(p)], cv(t)],
				UPDATE z[*, *] = s[pr.par[cv(p)], cv(t)] * pr.w[cv(p)],
				UPDATE u['tv', 2005] = w['vcr'] + s[par['tv'], 2004] )`,
			[]string{"yes", "yes", "yes"}},
		{"nested-ref-self-read",
			vecRefSQL + `( UPDATE s[*, *] = s[par[cv(p)], cv(t)] )`,
			[]string{"no(cyclic)"}},
		{"nested-main-read",
			vecRefSQL + `( UPDATE u[*, *] = s[par[cv(p)], z[cv(p), cv(t)]] )`,
			[]string{"no(unsupported-expr)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mustModel(t, tc.sql, nil)
			got := m.RuleVecNotes(false)
			if len(got) != len(tc.want) {
				t.Fatalf("notes = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("note[%d] = %q, want %q (all: %v)", i, got[i], tc.want[i], got)
				}
			}
			// The disabled flag masks every would-be batch rule.
			for i, n := range m.RuleVecNotes(true) {
				if tc.want[i] == "yes" && n != "no(disabled)" {
					t.Fatalf("disabled note[%d] = %q, want no(disabled)", i, n)
				}
				if tc.want[i] != "yes" && n != tc.want[i] {
					t.Fatalf("disabled note[%d] = %q, want %q", i, n, tc.want[i])
				}
			}
		})
	}
}
