// EXPLAIN's vectorized= notes. That the vectorized paths return the row
// path's bytes is the differential harness's (differential_test.go).
package sqlsheet_test

import (
	"slices"
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/core"
)

// TestExplainVectorizedAnnotation checks EXPLAIN advertises kernel
// compilation and that the ablation knob turns the annotation off.
func TestExplainVectorizedAnnotation(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE e (a INT, c TEXT)`)
	db.MustExec(`INSERT INTO e VALUES (1, 'x'), (2, 'y')`)

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(`SELECT a FROM e WHERE a > 1 AND c LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=yes") {
		t.Errorf("supported predicate lacks vectorized=yes:\n%s", out)
	}
	// Arithmetic predicates have no kernel: annotation must say no.
	out, err = db.Explain(`SELECT a FROM e WHERE a % 2 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no") {
		t.Errorf("unsupported predicate lacks vectorized=no:\n%s", out)
	}
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedExec: true}}})
	out, err = db.Explain(`SELECT a FROM e WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "vectorized=yes") {
		t.Errorf("ablated plan still advertises vectorized=yes:\n%s", out)
	}
}

// TestExplainVectorizedRules checks EXPLAIN's per-rule vectorized= notes:
// batchable formulas advertise yes, fallbacks name their reason, and the
// ablation knob rewrites yes to no(disabled) without masking real reasons.
func TestExplainVectorizedRules(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE fe (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT)`)
	db.MustExec(`INSERT INTO fe VALUES ('w','tv',2000,1,0), ('w','tv',2001,2,0)`)
	const q = `SELECT r, p, t, s, u FROM fe SPREADSHEET PBY(r) DBY (p, t) MEA (s, u)
		( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5,
		  UPDATE u[*, t > 2000] = avg(s)[cv(p), 1990 <= t <= 1999],
		  UPDATE s['tv', 2001] = s['tv', 2000] * 2 )`

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vectorized=yes", "vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN lacks %s:\n%s", want, out)
		}
	}
	it, err := db.Explain(`SELECT t, s FROM fe SPREADSHEET DBY (t) MEA (s) ITERATE (2) ( s[2000] = s[2000] / 2 )`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(it, "vectorized=no(iterate)") {
		t.Errorf("ITERATE rule lacks vectorized=no(iterate):\n%s", it)
	}

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedRules: true}}})
	out, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no(disabled)") {
		t.Errorf("ablated rule plan lacks vectorized=no(disabled):\n%s", out)
	}
	for _, want := range []string{"vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablated EXPLAIN masks real fallback %s:\n%s", want, out)
		}
	}
}

// TestExplainBucketRulesBatched: every rule of the bucket-batch case's first
// four statements — nested, sheet-qualified and PBY-keyed reference reads —
// batches.
func TestExplainBucketRulesBatched(t *testing.T) {
	cases := diffCorpus()
	c := cases[slices.IndexFunc(cases, func(c diffCase) bool { return c.name == "bucket-batch" })]
	db := fixtureDB(t, c.fixture)
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	for _, q := range c.script[:4] {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized=yes") || strings.Contains(plan, "vectorized=no") {
			t.Errorf("want every rule batched:\n%s", plan)
		}
	}
}
