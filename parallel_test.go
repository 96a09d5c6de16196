// The morsel-driven parallel operators' statistics. That they return serial
// execution's bytes at every worker count, and that workers and PEs share
// one core budget without deadlock, is the differential harness's.
package sqlsheet_test

import (
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/exec"
)

// TestQueryOpStats checks that the parallel operators report their
// per-operator statistics through the public API and EXPLAIN ANALYZE text.
func TestQueryOpStats(t *testing.T) {
	db := fixtureDB(t, parallelPropDB(7))
	db.Configure(sqlsheet.Config{Workers: 2, Ablate: sqlsheet.Ablation{Exec: exec.Ablation{MorselSize: 16}}})
	q := `SELECT t2.d, SUM(t1.b) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`
	_, ops, err := db.QueryOpStats(q)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range ops.Ops {
		seen[op.Op] = true
		if op.Rows <= 0 || op.Morsels <= 0 || op.Workers < 1 {
			t.Errorf("implausible stat: %+v", op)
		}
	}
	for _, want := range []string{"join-probe", "group-by"} {
		if !seen[want] {
			t.Errorf("no %q stat in %v", want, ops.Ops)
		}
	}
	text, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "execution:") || !strings.Contains(text, "group-by") {
		t.Errorf("ExplainAnalyze output missing stats:\n%s", text)
	}
}
