package plan

import (
	"strings"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, cols ...string) {
		if _, err := cat.Create(name, types.NewSchemaNames(cols...)); err != nil {
			t.Fatal(err)
		}
	}
	mk("f", "r", "p", "t", "s", "c")
	mk("fm", "p", "m", "s")
	mk("dim", "p", "cat")
	mk("time_dt", "m", "m_yago", "m_qago")
	return cat
}

func mustPlan(t *testing.T, sql string, opts *Options) Node {
	t.Helper()
	stmt, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n, err := Build(testCatalog(t), stmt, opts)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return n
}

func planErr(t *testing.T, sql string) error {
	t.Helper()
	stmt, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(testCatalog(t), stmt, nil)
	if err == nil {
		t.Fatalf("expected plan error for %q", sql)
	}
	return err
}

func TestFilterPushedIntoScan(t *testing.T) {
	n := mustPlan(t, `SELECT r FROM f WHERE t = 2000 AND s > 1`, nil)
	out := Explain(n)
	if !strings.Contains(out, "Scan f filter=") {
		t.Errorf("filter not pushed:\n%s", out)
	}
	if strings.Contains(out, "\nFilter") {
		t.Errorf("stray filter remains:\n%s", out)
	}
}

func TestCommaJoinUpgradedToHash(t *testing.T) {
	n := mustPlan(t, `SELECT f.p FROM f, dim WHERE f.p = dim.p AND f.t = 2000`, nil)
	out := Explain(n)
	if !strings.Contains(out, "INNER Join") {
		t.Errorf("cross join not upgraded:\n%s", out)
	}
	if !strings.Contains(out, "on f.p = dim.p") {
		t.Errorf("equi key not extracted:\n%s", out)
	}
	if !strings.Contains(out, "Scan f filter=(f.t = 2000)") {
		t.Errorf("side predicate not pushed:\n%s", out)
	}
}

func TestOuterJoinPushdownRestrictions(t *testing.T) {
	// A predicate on the null-supplying side must NOT push below a LEFT
	// join.
	n := mustPlan(t, `SELECT f.p FROM f LEFT JOIN dim ON f.p = dim.p WHERE dim.cat = 'x'`, nil)
	out := Explain(n)
	if strings.Contains(out, "Scan dim filter=") {
		t.Errorf("unsound pushdown below left join:\n%s", out)
	}
	// But a preserved-side predicate may push.
	n = mustPlan(t, `SELECT f.p FROM f LEFT JOIN dim ON f.p = dim.p WHERE f.t = 2000`, nil)
	out = Explain(n)
	if !strings.Contains(out, "Scan f filter=") {
		t.Errorf("preserved-side predicate not pushed:\n%s", out)
	}
}

func TestGroupKeyPushdown(t *testing.T) {
	n := mustPlan(t, `SELECT p FROM (SELECT p, SUM(s) total FROM f GROUP BY p) v WHERE p = 'dvd'`, nil)
	out := Explain(n)
	if !strings.Contains(out, "Scan f filter=(p = 'dvd')") {
		t.Errorf("group-key predicate not pushed through GROUP BY:\n%s", out)
	}
	// Aggregate-result predicates must stay above.
	n = mustPlan(t, `SELECT p FROM (SELECT p, SUM(s) total FROM f GROUP BY p) v WHERE total > 5`, nil)
	out = Explain(n)
	if strings.Contains(out, "Scan f filter=") {
		t.Errorf("aggregate predicate pushed unsoundly:\n%s", out)
	}
}

func TestAggregateRewriting(t *testing.T) {
	ar := newAggRewriter(mustExprs(t, "p"))
	e := mustExpr(t, "sum(s) + sum(s) + avg(c)")
	out := ar.rewrite(e)
	if len(ar.specs) != 2 {
		t.Fatalf("specs = %d, want dedup to 2", len(ar.specs))
	}
	if !strings.Contains(out.String(), "$agg0") || !strings.Contains(out.String(), "$agg1") {
		t.Errorf("rewrite = %s", out)
	}
	// Key expression rewrite.
	ar2 := newAggRewriter(mustExprs(t, "t + 1"))
	out2 := ar2.rewrite(mustExpr(t, "(t + 1) * 2"))
	if !strings.Contains(out2.String(), "$key0") {
		t.Errorf("key rewrite = %s", out2)
	}
}

func mustExpr(t *testing.T, s string) sqlast.Expr {
	t.Helper()
	e, err := parser.ParseExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func mustExprs(t *testing.T, ss ...string) []sqlast.Expr {
	t.Helper()
	out := make([]sqlast.Expr, len(ss))
	for i, s := range ss {
		out[i] = mustExpr(t, s)
	}
	return out
}

func TestPlanErrors(t *testing.T) {
	cases := []struct{ sql, want string }{
		{`SELECT zzz FROM f`, "unknown column"},
		{`SELECT * FROM missing`, "unknown table"},
		{`SELECT s FROM f GROUP BY p`, "unknown column s"},
		{`SELECT p FROM f HAVING SUM(q) > 1`, "unknown column"},
		{`SELECT * FROM f GROUP BY p`, "SELECT *"},
		{`SELECT p FROM f UNION SELECT p, t FROM f`, "UNION arms"},
		{`SELECT p FROM f LIMIT 'x'`, "LIMIT"},
		{`SELECT p FROM f ORDER BY 9`, "out of range"},
		{`SELECT p FROM f WHERE cv(t) = 1`, "cv()"},
		{`SELECT p FROM f HAVING 1 = 1`, "HAVING requires"},
		{`SELECT sum(q) FROM f`, "unknown column"},
	}
	for _, c := range cases {
		err := planErr(t, c.sql)
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %q does not contain %q", c.sql, err, c.want)
		}
	}
}

func TestOrderByResolution(t *testing.T) {
	// Positional.
	n := mustPlan(t, `SELECT p, t FROM f ORDER BY 2 DESC`, nil)
	s, ok := n.(*Sort)
	if !ok {
		t.Fatalf("top = %T", n)
	}
	if s.Items[0].Expr.String() != "t" || !s.Items[0].Desc {
		t.Errorf("positional order = %+v", s.Items[0])
	}
	// Stale qualifier stripped.
	n = mustPlan(t, `SELECT f.p FROM f ORDER BY f.p`, nil)
	if n.(*Sort).Items[0].Expr.String() != "p" {
		t.Errorf("qualifier not stripped: %s", n.(*Sort).Items[0].Expr)
	}
}

func TestSpreadsheetPlanSchema(t *testing.T) {
	n := mustPlan(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s['dvd', 2002] = 1 )`, nil)
	cols := n.Schema().Cols
	if len(cols) != 4 || cols[3].Name != "s" {
		t.Errorf("schema = %+v", cols)
	}
	out := Explain(n)
	if !strings.Contains(out, "Spreadsheet PBY(r) DBY(p, t) MEA(s)") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestSpreadsheetSelectMustResolve(t *testing.T) {
	err := planErr(t, `SELECT r, p, t, s, c FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s['dvd', 2002] = 1 )`)
	if !strings.Contains(err.Error(), "unknown column c") {
		t.Errorf("err = %v", err)
	}
}

func TestNewMeasureDeclaration(t *testing.T) {
	// A bare unresolvable MEA name declares a NULL measure; an expression
	// initializes one.
	n := mustPlan(t, `SELECT t, s, x, y FROM f
		SPREADSHEET PBY(r) DBY(t) MEA(s, 0 AS x, y)
		( x[2000] = 1 )`, nil)
	sheet := findSheet(n)
	if sheet == nil {
		t.Fatal("no spreadsheet node")
	}
	names := sheet.Model.MeasureNames()
	if len(names) != 3 || names[1] != "x" || names[2] != "y" {
		t.Errorf("measures = %v", names)
	}
}

func findSheet(n Node) *Spreadsheet {
	if s, ok := n.(*Spreadsheet); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findSheet(c); s != nil {
			return s
		}
	}
	return nil
}

func TestUnfoldStrategyRewritesRules(t *testing.T) {
	// With PushUnfold and an executable ref, formulas specialize per outer
	// value; without an Exec hook the strategy degrades gracefully.
	stmt, err := parser.ParseQuery(`SELECT p, m, s, r_yago FROM
		(SELECT p, m, s, r_yago FROM fm
		 SPREADSHEET
		   REFERENCE prior ON (SELECT m, m_yago FROM time_dt) DBY(m) MEA(m_yago)
		   PBY(p) DBY(m) MEA(s, r_yago)
		 RULES UPDATE
		 ( F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]] )
		) v WHERE m IN ('1999-01')`)
	if err != nil {
		t.Fatal(err)
	}
	// No Exec hook: plan must still build (predicate simply stays).
	cat := testCatalog(t)
	n, err := Build(cat, stmt, &Options{Ablate: Ablation{Push: PushUnfold}})
	if err != nil {
		t.Fatal(err)
	}
	if findSheet(n) == nil {
		t.Fatal("no sheet in plan")
	}
}

func TestCTEPlan(t *testing.T) {
	n := mustPlan(t, `WITH w AS (SELECT p, SUM(s) tot FROM f GROUP BY p)
		SELECT a.p FROM w a JOIN w b ON a.p = b.p`, nil)
	out := Explain(n)
	if strings.Count(out, "CTE w") != 2 {
		t.Errorf("CTE refs:\n%s", out)
	}
}

func TestExplainJoinDetails(t *testing.T) {
	n := mustPlan(t, `SELECT f.p FROM f JOIN dim ON f.p = dim.p AND f.t > 5`,
		&Options{Ablate: Ablation{ForceJoin: JoinHash}})
	out := Explain(n)
	if !strings.Contains(out, "(hash)") {
		t.Errorf("forced method missing:\n%s", out)
	}
	if !strings.Contains(out, "residual=") && !strings.Contains(out, "Scan f filter=") {
		t.Errorf("non-equi conjunct lost:\n%s", out)
	}
}
