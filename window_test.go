package sqlsheet_test

import (
	"strings"
	"testing"
	"time"

	"sqlsheet"
)

func TestWindowRankingFunctions(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT p, t, s,
		       row_number() OVER (PARTITION BY p ORDER BY s DESC) rn,
		       rank() OVER (PARTITION BY p ORDER BY s DESC) rk
		FROM f WHERE r = 'west' AND t >= 2000
		ORDER BY p, rn`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Per product: 3 years, s strictly increasing in t → rn 1 is t=2002.
	for _, row := range res.Rows {
		if row[3].Int() == 1 && row[1].Int() != 2002 {
			t.Errorf("rn=1 should be 2002: %v", row)
		}
	}
}

func TestWindowRankTies(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (g TEXT, v INT)`)
	db.MustExec(`INSERT INTO t VALUES ('a',10),('a',10),('a',5),('a',1)`)
	res, err := db.Query(`
		SELECT v, rank() OVER (ORDER BY v DESC) rk,
		          dense_rank() OVER (ORDER BY v DESC) dr
		FROM t ORDER BY rk, v`)
	if err != nil {
		t.Fatal(err)
	}
	// v=10,10 → rank 1,1; v=5 → rank 3, dense 2; v=1 → rank 4, dense 3.
	if res.Rows[0][1].Int() != 1 || res.Rows[1][1].Int() != 1 {
		t.Errorf("tie ranks: %v", res.Rows)
	}
	if res.Rows[2][1].Int() != 3 || res.Rows[2][2].Int() != 2 {
		t.Errorf("post-tie: %v", res.Rows[2])
	}
	if res.Rows[3][1].Int() != 4 || res.Rows[3][2].Int() != 3 {
		t.Errorf("last: %v", res.Rows[3])
	}
}

// TestCumulativeWindowCost: a cumulative MIN/MAX adds each row once, as a
// cumulative SUM does, instead of re-adding the whole prefix for every row
// (25 s at 20,000 rows when MIN/MAX, having no inverse, took that path).
func TestCumulativeWindowCost(t *testing.T) {
	const n = 20000
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE cw (i INT, x FLOAT)`)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, float64((i * 7919) % n)}
	}
	if err := db.Insert("cw", rows...); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := db.Query(`SELECT i, MAX(x) OVER (ORDER BY i) AS m FROM cw ORDER BY i`)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n || res.Rows[n-1][1].Float() != n-1 {
		t.Fatalf("got %d rows, last %v; want %d rows ending in MAX %d", len(res.Rows), res.Rows[n-1], n, n-1)
	}
	if took > 2*time.Second {
		t.Errorf("cumulative MAX over %d rows took %v, want < 2s", n, took)
	}
}

func TestWindowLagLead(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT t, s,
		       lag(s) OVER (ORDER BY t) prev,
		       lead(s, 1, -1) OVER (ORDER BY t) next
		FROM f WHERE r = 'west' AND p = 'dvd' AND t >= 2000
		ORDER BY t`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][2].IsNull() {
		t.Errorf("first lag must be NULL: %v", res.Rows[0])
	}
	approx(t, res.Rows[1][2], 10, "lag")  // s(2000)=10
	approx(t, res.Rows[1][3], 12, "lead") // s(2002)=12
	approx(t, res.Rows[2][3], -1, "lead default")
}

func TestWindowCumulativeAndMoving(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE w (t INT, v FLOAT)`)
	db.MustExec(`INSERT INTO w VALUES (1,1),(2,2),(3,3),(4,4),(5,5)`)
	res, err := db.Query(`
		SELECT t,
		       sum(v) OVER (ORDER BY t) cume,
		       avg(v) OVER (ORDER BY t ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) mov,
		       sum(v) OVER () total,
		       min(v) OVER (ORDER BY t ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) lmin
		FROM w ORDER BY t`)
	if err != nil {
		t.Fatal(err)
	}
	wantCume := []float64{1, 3, 6, 10, 15}
	wantMov := []float64{1, 1.5, 2, 3, 4}
	wantMin := []float64{1, 1, 2, 3, 4}
	for i, row := range res.Rows {
		approx(t, row[1], wantCume[i], "cume")
		approx(t, row[2], wantMov[i], "moving avg")
		approx(t, row[3], 15, "total")
		approx(t, row[4], wantMin[i], "sliding min")
	}
}

func TestWindowOverGroupBy(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT p, SUM(s) total,
		       rank() OVER (ORDER BY SUM(s) DESC) rk
		FROM f WHERE r = 'west'
		GROUP BY p ORDER BY rk`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "tv" || res.Rows[0][2].Int() != 1 {
		t.Errorf("agg-of-agg rank: %v", res.Rows)
	}
}

// TestWindowEqualsSpreadsheetPriorPeriod ties the two OLAP mechanisms the
// paper contrasts: a prior-period ratio via LAG (the ROLAP baseline) must
// equal the spreadsheet formulation with cv(t)-1.
func TestWindowEqualsSpreadsheetPriorPeriod(t *testing.T) {
	db := newFactDB(t)
	win, err := db.Query(`
		SELECT r, p, t, s / lag(s) OVER (PARTITION BY r, p ORDER BY t) ratio
		FROM f
		ORDER BY r, p, t`)
	if err != nil {
		t.Fatal(err)
	}
	sheet, err := db.Query(`
		SELECT r, p, t, ratio FROM
		  (SELECT r, p, t, s, ratio FROM f
		   SPREADSHEET PBY(r, p) DBY (t) MEA (s, ratio) UPDATE
		   ( ratio[*] = s[cv(t)] / s[cv(t)-1] )) v
		ORDER BY r, p, t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(win.Rows) != len(sheet.Rows) {
		t.Fatalf("row counts: %d vs %d", len(win.Rows), len(sheet.Rows))
	}
	for i := range win.Rows {
		a, b := win.Rows[i][3], sheet.Rows[i][3]
		if a.IsNull() != b.IsNull() {
			t.Fatalf("row %d: %v vs %v", i, win.Rows[i], sheet.Rows[i])
		}
		if !a.IsNull() {
			d := a.Float() - b.Float()
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("row %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestWindowErrors(t *testing.T) {
	db := newFactDB(t)
	cases := []struct{ sql, want string }{
		{`SELECT p FROM f WHERE rank() OVER (ORDER BY s) = 1`, "not allowed in WHERE"},
		{`SELECT rank() OVER (ORDER BY s) FROM f GROUP BY rank() OVER (ORDER BY s)`, "GROUP BY"},
		{`SELECT rank() OVER () FROM f`, "requires ORDER BY"},
		{`SELECT lag(s, 1) OVER (ORDER BY t ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM f`, "frame"},
		{`SELECT frobnicate() OVER () FROM f`, "not a window function"},
		{`SELECT lag() OVER (ORDER BY t) FROM f`, "requires an argument"},
		{`SELECT r, p, t, s, rank() OVER (ORDER BY s) FROM f SPREADSHEET PBY(r) DBY(p,t) MEA(s) ( s[1,2]=3 )`, "cannot share a query block"},
	}
	for _, c := range cases {
		_, err := db.Query(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want contains %q", c.sql, err, c.want)
		}
	}
}

func TestWindowWithStar(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (a INT)`)
	db.MustExec(`INSERT INTO t VALUES (3),(1),(2)`)
	res, err := db.Query(`SELECT *, row_number() OVER (ORDER BY a) rn FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[1] != "rn" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][1].Int() != 1 || res.Rows[2][1].Int() != 3 {
		t.Errorf("star + window: %v", res.Rows)
	}
}

// TestExplainWindowOrder: the benchmark's window_ma shape plans no Sort and
// no Limit above its window — the window sorts once, emits in the ORDER
// BY's order and stops after the LIMIT's rows — and EXPLAIN ANALYZE prints
// the window's line.
func TestExplainWindowOrder(t *testing.T) {
	db := sqlsheet.Open()
	if _, err := db.InstallAPB(sqlsheet.APBScale{Seed: 3, ProductFanout: []int{2, 2, 2, 2, 3, 3},
		Channels: 2, Customers: 2, Years: 1, Density: 0.2}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT c, h, p, t, s, AVG(s) OVER (PARTITION BY c, h, p ORDER BY t ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ma
		FROM apb_cube WHERE s > 5 ORDER BY c, h, p, t LIMIT 500`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "Sort") || strings.Contains(plan, "Limit") || !strings.Contains(plan, "order=c, h, p, t limit=500 vectorized=yes") {
		t.Errorf("window_ma plan:\n%s", plan)
	}
	analyzed, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	window := false
	for _, line := range strings.Split(analyzed, "\n") {
		f := strings.Fields(line)
		window = window || len(f) > 0 && f[0] == "window" && strings.Contains(line, "partitions=") && strings.HasSuffix(line, "k=500 keys=typed,packed")
	}
	if !window {
		t.Errorf("EXPLAIN ANALYZE lacks the window line:\n%s", analyzed)
	}
}
