package plan

import (
	"fmt"
	"strings"
	"testing"
)

// TestOptimizerReachesEveryNode puts two shapes the optimizer rewrites under
// every node that has inputs: a filter over a spreadsheet, whose PBY
// predicate must be pushed into the sheet, and a comma join whose WHERE
// equi-predicate must become a hash join's keys. Each wrapper's EXPLAIN must
// show the rewrite, however deep the shape sits.
func TestOptimizerReachesEveryNode(t *testing.T) {
	shapes := []struct{ name, sql, want string }{
		{"sheet", `SELECT p, t, s FROM (SELECT p, t, s FROM f
			SPREADSHEET PBY(p) DBY(t) MEA(s) (s[2000] = s[1999] + 1)) WHERE p = 'a'`,
			"* pushed PBY predicate (p = 'a')"},
		{"join", `SELECT f.p, f.t, f.s FROM f, dim WHERE f.p = dim.p`,
			"INNER Join (hash) on f.p = dim.p"},
	}
	wrappers := []struct{ name, sql string }{
		{"cte", `WITH v AS (%s) SELECT p, t, s FROM v`},
		{"window", `SELECT p, t, s, SUM(s) OVER (PARTITION BY p) AS w FROM (%s) x`},
		{"union-left", `%s UNION ALL SELECT p, t, s FROM f`},
		{"union-right", `SELECT p, t, s FROM f UNION ALL %s`},
		{"join-left", `SELECT x.p, x.t, dim.cat FROM (%s) x JOIN dim ON x.p = dim.p`},
		{"join-right", `SELECT x.p, x.t, dim.cat FROM dim JOIN (%s) x ON dim.p = x.p`},
		{"group-by", `SELECT p, SUM(s) FROM (%s) x GROUP BY p`},
		{"sort-limit", `SELECT p, t, s FROM (%s) x ORDER BY t LIMIT 3`},
		{"reference", `SELECT p, t, s FROM f SPREADSHEET
			REFERENCE rr ON (SELECT t AS rt, s AS rs FROM (%s) y) DBY(rt) MEA(rs)
			PBY(p) DBY(t) MEA(s) (s[2000] = rs[1999])`},
		{"derived", `SELECT p, t, s FROM (%s) x`},
	}
	for _, w := range wrappers {
		for _, sh := range shapes {
			t.Run(w.name+"/"+sh.name, func(t *testing.T) {
				out := Explain(mustPlan(t, fmt.Sprintf(w.sql, sh.sql), nil))
				if !strings.Contains(out, sh.want) {
					t.Errorf("no %q:\n%s", sh.want, out)
				}
			})
		}
	}
}

// TestExplainReferenceLayout pins where a sheet's inputs print: each
// reference sheet's plan under its name, then the sheet's input, once each.
func TestExplainReferenceLayout(t *testing.T) {
	out := Explain(mustPlan(t, `SELECT p, m, s FROM fm SPREADSHEET
		REFERENCE prior ON (SELECT m, m_yago FROM time_dt) DBY(m) MEA(m_yago)
		PBY(p) DBY(m) MEA(s) (s['x'] = s[m_yago['x']])`, nil))
	want := `Project p, m, s vectorized=yes
  Spreadsheet PBY(p) DBY(m) MEA(s)
    kinds: s input
    cycle 1:
      s['x'] = s[m_yago['x']] vectorized=no(cyclic)
    reference prior:
      Project m, m_yago vectorized=yes
        Project m, m_yago vectorized=yes
          Scan time_dt
    Project p, m, s vectorized=yes
      Scan fm
`
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}

// TestSingleReferenceCTEInlined pins that a CTE referenced once is planned
// as a derived table, so a predicate on it reaches the sheet's PBY and the
// sheet's scan, while a CTE referenced twice stays one materialized CTE.
func TestSingleReferenceCTEInlined(t *testing.T) {
	sheet := `SELECT p, t, s FROM f SPREADSHEET PBY(p) DBY(t) MEA(s) (s[2000] = s[1999] + 1)`
	once := Explain(mustPlan(t, `WITH v AS (`+sheet+`) SELECT p, t, s FROM v WHERE p = 'a'`, nil))
	for _, want := range []string{"* pushed PBY predicate (p = 'a')", "Scan f filter=(p = 'a')"} {
		if !strings.Contains(once, want) {
			t.Errorf("once: no %q:\n%s", want, once)
		}
	}
	if strings.Contains(once, "CTE v") {
		t.Errorf("once: the CTE was not inlined:\n%s", once)
	}
	twice := Explain(mustPlan(t, `WITH v AS (`+sheet+`) SELECT a.p, b.t FROM v a, v b WHERE a.p = b.p AND a.t = b.t`, nil))
	if strings.Count(twice, "CTE v as") != 2 || strings.Contains(twice, "pushed PBY predicate") {
		t.Errorf("twice: want two CTE refs and no pushed predicate:\n%s", twice)
	}
}
