package sqlsheet_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/parser"
)

// newFactDB builds the paper's electronics warehouse f(r, p, t, s, c).
func newFactDB(t *testing.T) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT, c FLOAT)`)
	for _, r := range []string{"west", "east"} {
		for _, p := range []string{"dvd", "vcr", "tv"} {
			for ti := 1992; ti <= 2002; ti++ {
				base := float64(ti - 1990)
				if p == "vcr" {
					base *= 2
				}
				if p == "tv" {
					base *= 3
				}
				if r == "east" {
					base += 100
				}
				if err := db.Insert("f", []any{r, p, ti, base, base / 2}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db
}

// lookup finds a result row matching the leading key values.
func lookup(t *testing.T, res *sqlsheet.Result, keys ...any) sqlsheet.Row {
	t.Helper()
	for _, row := range res.Rows {
		ok := true
		for i, k := range keys {
			if row[i].String() != fmt.Sprint(k) {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("no row with keys %v in %d rows", keys, len(res.Rows))
	return nil
}

func approx(t *testing.T, got sqlsheet.Value, want float64, what string) {
	t.Helper()
	if got.IsNull() {
		t.Fatalf("%s = NULL, want %g", what, want)
	}
	if math.Abs(got.Float()-want) > 1e-9 {
		t.Fatalf("%s = %v, want %g", what, got, want)
	}
}

// --- plain SQL behaviour ---

func TestSelectWhereOrder(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`SELECT p, t, s FROM f WHERE r = 'west' AND p = 'dvd' AND t >= 2000 ORDER BY t DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Int() != 2002 || res.Rows[2][1].Int() != 2000 {
		t.Errorf("order broken: %v", res.Rows)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`SELECT p, SUM(s) total, COUNT(*) n FROM f WHERE r = 'west'
		GROUP BY p HAVING SUM(s) > 100 ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// west sums: dvd = sum(2..12)=77, vcr = 154, tv = 231.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "tv" {
		t.Errorf("ordering: %v", res.Rows)
	}
	approx(t, res.Rows[0][1], 231, "tv total")
	if res.Rows[0][2].Int() != 11 {
		t.Errorf("count = %v", res.Rows[0][2])
	}
}

func TestJoinsMatchAcrossMethods(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE TABLE dim (p TEXT, cat TEXT)`)
	db.MustExec(`INSERT INTO dim VALUES ('dvd','video'),('vcr','video'),('tv','display')`)
	q := `SELECT f.p, dim.cat, SUM(f.s) s FROM f JOIN dim ON f.p = dim.p
		WHERE f.r = 'west' GROUP BY f.p, dim.cat ORDER BY f.p`
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Ablate.Plan.ForceJoin = sqlsheet.JoinNestedLoop
	db.Configure(cfg)
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 3 || len(r2.Rows) != 3 {
		t.Fatalf("rows: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if r1.Rows[i][j].String() != r2.Rows[i][j].String() {
				t.Fatalf("hash vs NL mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestOuterJoins(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE a (x INT); CREATE TABLE b (y INT)`)
	db.MustExec(`INSERT INTO a VALUES (1),(2),(3); INSERT INTO b VALUES (2),(3),(4)`)
	res, err := db.Query(`SELECT x, y FROM a LEFT JOIN b ON x = y ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !res.Rows[0][1].IsNull() {
		t.Errorf("left join: %v", res.Rows)
	}
	res, err = db.Query(`SELECT x, y FROM a RIGHT JOIN b ON x = y ORDER BY y`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || !res.Rows[2][0].IsNull() {
		t.Errorf("right join: %v", res.Rows)
	}
}

func TestSubqueries(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`SELECT COUNT(*) FROM f WHERE s > (SELECT AVG(s) FROM f)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() == 0 {
		t.Error("scalar subquery broken")
	}
	// Correlated EXISTS.
	res, err = db.Query(`SELECT DISTINCT p FROM f a WHERE EXISTS
		(SELECT 1 FROM f b WHERE b.p = a.p AND b.s > 130) ORDER BY p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "tv" {
		t.Errorf("correlated exists: %v", res.Rows)
	}
}

func TestUnionWithCTE(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`WITH w AS (SELECT DISTINCT p FROM f WHERE r = 'west')
		SELECT p FROM w UNION SELECT 'radio' p ORDER BY p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("union+cte: %v", res.Rows)
	}
}

// --- spreadsheet end-to-end (paper examples) ---

func TestPaperMotivatingExample(t *testing.T) {
	// §3: F1 slope forecast, F2 sum, F3 average of three years, F4 upsert
	// of the new 'video' member.
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		F1: UPDATE s['tv',2002] =
			slope(s,t)['tv',1992<=t<=2001]*s['tv',2001] + s['tv',2001],
		F2: UPDATE s['vcr', 2002] = s['vcr', 2000] + s['vcr', 2001],
		F3: UPDATE s['dvd',2002] =
			(s['dvd',1999]+s['dvd',2000]+s['dvd',2001])/3,
		F4: UPSERT s['video', 2002] = s['tv',2002] + s['vcr',2002]
		)`)
	if err != nil {
		t.Fatal(err)
	}
	// west/tv: s linear with slope 3 over 1992..2001, s[2001]=33 → 3*33+33=132.
	approx(t, lookup(t, res, "west", "tv", 2002)[3], 132, "F1")
	// west/vcr: 20 + 22 = 42.
	approx(t, lookup(t, res, "west", "vcr", 2002)[3], 42, "F2")
	// west/dvd: (9+10+11)/3 = 10.
	approx(t, lookup(t, res, "west", "dvd", 2002)[3], 10, "F3")
	// west/video = 132 + 42.
	approx(t, lookup(t, res, "west", "video", 2002)[3], 174, "F4")
	// 2 regions × (3 products × 11 years + 1 upsert).
	if len(res.Rows) != 2*(33+1) {
		t.Errorf("row count = %d", len(res.Rows))
	}
}

func TestDensificationEquivalence(t *testing.T) {
	// §3: the spreadsheet densification must equal the ANSI outer-join
	// formulation.
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	db.MustExec(`CREATE TABLE time_dt (t INT)`)
	db.MustExec(`INSERT INTO time_dt VALUES (1998),(1999),(2000),(2001)`)
	db.MustExec(`INSERT INTO f VALUES
		('west','dvd',1998,10),('west','dvd',2001,13),('east','vcr',1999,5)`)

	sheet, err := db.Query(`
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r, p) DBY (t) MEA (s, 0 as x)
		( UPSERT x[FOR t IN (SELECT t FROM time_dt)] = 0 )
		ORDER BY r, p, t`)
	if err != nil {
		t.Fatal(err)
	}
	ansi, err := db.Query(`
		SELECT v.r, v.p, v.t, f.s
		FROM f RIGHT OUTER JOIN
		     ( (SELECT DISTINCT r, p FROM f)
		        CROSS JOIN
		        (SELECT t FROM time_dt)
		      ) v
		   ON (f.r = v.r AND f.p = v.p AND f.t = v.t)
		ORDER BY v.r, v.p, v.t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sheet.Rows) != 8 || len(ansi.Rows) != 8 {
		t.Fatalf("row counts: sheet=%d ansi=%d", len(sheet.Rows), len(ansi.Rows))
	}
	for i := range sheet.Rows {
		for j := 0; j < 4; j++ {
			a, b := sheet.Rows[i][j], ansi.Rows[i][j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && a.String() != b.String()) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a, b)
			}
		}
	}
}

func TestQueryS1PriorPeriods(t *testing.T) {
	// §4 query S1: year-ago / quarter-ago ratios through a reference
	// spreadsheet, including Table 1's mapping.
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (p TEXT, m TEXT, s FLOAT)`)
	db.MustExec(`CREATE TABLE time_dt (m TEXT, m_yago TEXT, m_qago TEXT)`)
	db.MustExec(`INSERT INTO time_dt VALUES
		('1999-01','1998-01','1998-10'),
		('1999-02','1998-02','1998-11'),
		('1999-03','1998-03','1998-12')`)
	db.MustExec(`INSERT INTO f VALUES
		('dvd','1999-01',30),('dvd','1999-01',30),
		('dvd','1998-01',20),('dvd','1998-10',40)`)

	res, err := db.Query(`
		SELECT p, m, s, r_yago, r_qago FROM
		 (SELECT p, m, s, r_yago, r_qago FROM f GROUP BY p, m
		  SPREADSHEET
		    REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
		      DBY(m) MEA(m_yago, m_qago)
		    PBY(p) DBY (m) MEA (sum(s) s, r_yago, r_qago)
		  RULES UPDATE
		  (
		  F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]],
		  F2: r_qago[*] = s[cv(m)] / s[m_qago[cv(m)]]
		  )
		) v
		WHERE p = 'dvd' AND m IN ('1999-01', '1999-03')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := lookup(t, res, "dvd", "1999-01")
	approx(t, row[2], 60, "sum(s)")
	approx(t, row[3], 3, "r_yago") // 60 / 20
	approx(t, row[4], 1.5, "r_qago")
}

func TestQueryS1AllPushStrategies(t *testing.T) {
	for _, push := range []sqlsheet.PushStrategy{
		sqlsheet.PushNone, sqlsheet.PushExtended, sqlsheet.PushRefSubquery, sqlsheet.PushUnfold,
	} {
		t.Run(push.String(), func(t *testing.T) {
			db := sqlsheet.Open()
			db.MustExec(`CREATE TABLE f (p TEXT, m TEXT, s FLOAT)`)
			db.MustExec(`CREATE TABLE time_dt (m TEXT, m_yago TEXT, m_qago TEXT)`)
			db.MustExec(`INSERT INTO time_dt VALUES
				('1999-01','1998-01','1998-10'),('1999-02','1998-02','1998-11'),('1999-03','1998-03','1998-12')`)
			db.MustExec(`INSERT INTO f VALUES
				('dvd','1999-01',60),('dvd','1998-01',20),('dvd','1998-10',40),
				('dvd','1999-03',90),('dvd','1998-03',30),('dvd','1998-12',45),
				('dvd','1999-02',999),('vcr','1999-01',1)`)
			cfg := db.Options()
			cfg.Ablate.Plan.Push = push
			db.Configure(cfg)
			res, err := db.Query(`
				SELECT p, m, s, r_yago, r_qago FROM
				 (SELECT p, m, s, r_yago, r_qago FROM f GROUP BY p, m
				  SPREADSHEET
				    REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
				      DBY(m) MEA(m_yago, m_qago)
				    PBY(p) DBY (m) MEA (sum(s) s, r_yago, r_qago)
				  RULES UPDATE
				  (
				  F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]],
				  F2: r_qago[*] = s[cv(m)] / s[m_qago[cv(m)]]
				  )
				) v
				WHERE p = 'dvd' AND m IN ('1999-01', '1999-03')
				ORDER BY m`)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("rows = %v", res.Rows)
			}
			approx(t, res.Rows[0][3], 3, "r_yago 1999-01")
			approx(t, res.Rows[0][4], 1.5, "r_qago 1999-01")
			approx(t, res.Rows[1][3], 3, "r_yago 1999-03")
			approx(t, res.Rows[1][4], 2, "r_qago 1999-03")
		})
	}
}

func TestPruningThroughView(t *testing.T) {
	db := newFactDB(t)
	explain, err := db.Explain(`
		SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		 (
		 F1: s['dvd',2000]=s['dvd', 1999]*1.2,
		 F2: s['vcr',2000]=s['vcr',1998]+s['vcr',1999],
		 F3: s['tv', 2000]=avg(s)['tv', 1990<t<2000]
		 )
		) v
		WHERE p in ('dvd', 'vcr', 'video')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "pruned formula f3") {
		t.Errorf("F3 not pruned:\n%s", explain)
	}
	// And the results agree with the unoptimized run.
	q := `SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		 ( F1: s['dvd',2000]=s['dvd', 1999]*1.2,
		   F2: s['vcr',2000]=s['vcr',1998]+s['vcr',1999],
		   F3: s['tv', 2000]=avg(s)['tv', 1990<t<2000] )
		) v
		WHERE p in ('dvd', 'vcr', 'video') ORDER BY r, p, t`
	opt, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Ablate.Plan.DisableSheetPrune = true
	cfg.Ablate.Plan.DisableSheetPush = true
	cfg.Ablate.Plan.DisableFilterPushdown = true
	db.Configure(cfg)
	raw, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Rows) != len(raw.Rows) {
		t.Fatalf("optimized %d rows vs raw %d", len(opt.Rows), len(raw.Rows))
	}
	for i := range opt.Rows {
		for j := range opt.Rows[i] {
			if opt.Rows[i][j].String() != raw.Rows[i][j].String() {
				t.Fatalf("row %d col %d: %v vs %v", i, j, opt.Rows[i][j], raw.Rows[i][j])
			}
		}
	}
}

func TestPbyPredicatePushing(t *testing.T) {
	db := newFactDB(t)
	explain, err := db.Explain(`
		SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		  ( F1: s['dvd',2000]=s['dvd',1999]+s['dvd',1997],
		    F2: s['vcr',2000]=s['vcr',1998]+s['vcr',1999] )
		) v
		WHERE r = 'east' AND t = 2000 AND p = 'dvd'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pushed PBY predicate (r = 'east')",
		"pushed independent-dimension predicate (p = 'dvd')",
		"pushed bounding-rectangle predicate t IN (2000, 1999, 1997)",
	} {
		if !strings.Contains(explain, want) {
			t.Errorf("missing %q in:\n%s", want, explain)
		}
	}
	// Pushed predicates must reach the scan.
	if !strings.Contains(explain, "Scan f") || !strings.Contains(explain, "filter=") {
		t.Errorf("predicates not pushed to scan:\n%s", explain)
	}
	res, err := db.Query(`
		SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		  ( F1: s['dvd',2000]=s['dvd',1999]+s['dvd',1997],
		    F2: s['vcr',2000]=s['vcr',1998]+s['vcr',1999] )
		) v
		WHERE r = 'east' AND t = 2000 AND p = 'dvd'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// east dvd: 1999→109, 1997→107 ⇒ 216.
	approx(t, res.Rows[0][3], 216, "pushed result")
}

func TestSpreadsheetInsideLargerQuery(t *testing.T) {
	// The spreadsheet result is a relation: join it back to a dimension.
	db := newFactDB(t)
	db.MustExec(`CREATE TABLE names (p TEXT, full_name TEXT)`)
	db.MustExec(`INSERT INTO names VALUES ('dvd','digital video disc')`)
	res, err := db.Query(`
		SELECT v.p, n.full_name, v.s
		FROM (SELECT r, p, t, s FROM f
		      SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		      ( s['dvd', 2003] = s['dvd', 2002] * 2 )) v
		JOIN names n ON v.p = n.p
		WHERE v.t = 2003 AND v.r = 'west'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].String() != "digital video disc" {
		t.Fatalf("join over spreadsheet: %v", res.Rows)
	}
	approx(t, res.Rows[0][2], 24, "joined value")
}

func TestParallelSpreadsheetSQL(t *testing.T) {
	db := newFactDB(t)
	q := `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s[*, 2003] = s[cv(p), 2002] * 1.5,
		  UPSERT s['video', 2003] = s['tv', 2003] + s['vcr', 2003] )
		ORDER BY r, p, t`
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Parallel = 4
	db.Configure(cfg)
	par, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("parallel row count: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if serial.Rows[i][j].String() != par.Rows[i][j].String() {
				t.Fatalf("parallel mismatch row %d", i)
			}
		}
	}
}

func TestMemoryBudgetSpills(t *testing.T) {
	db := newFactDB(t)
	cfg := db.Options()
	cfg.MemoryBudget = 2048
	cfg.SpillDir = t.TempDir()
	db.Configure(cfg)
	res, stats, err := db.QueryStats(`
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s[*, 2002] = s[cv(p), 2001] * 1.5 )`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlockEvictions == 0 {
		t.Error("tight budget must evict blocks")
	}
	approx(t, lookup(t, res, "west", "dvd", 2002)[3], 16.5, "spilled result")
}

func TestExplainShowsLevels(t *testing.T) {
	db := newFactDB(t)
	explain, err := db.Explain(`SELECT p, t, s FROM f SPREADSHEET DBY(p,t) MEA(s)
		( F1: s['tv', 2000] = sum(s)['tv', 1990<t<2000],
		  F2: s['vcr',2000] = sum(s)['vcr', 1995<t<2000],
		  F3: s['vcr',1999] = s['vcr',1997]+s['vcr',1998] )`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "level 1") || !strings.Contains(explain, "level 2") {
		t.Errorf("levels missing:\n%s", explain)
	}
}

func TestInsertSelectAndCSV(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE TABLE agg (p TEXT, total FLOAT)`)
	db.MustExec(`INSERT INTO agg SELECT p, SUM(s) FROM f GROUP BY p`)
	if db.TableRows("agg") != 3 {
		t.Errorf("insert-select rows = %d", db.TableRows("agg"))
	}
	db.MustExec(`CREATE TABLE csvt (a INT, b TEXT)`)
	n, err := db.LoadCSV("csvt", strings.NewReader("a,b\n1,x\n2,y\n"), true)
	if err != nil || n != 2 {
		t.Fatalf("csv: %d %v", n, err)
	}
}

func TestErrorMessages(t *testing.T) {
	db := newFactDB(t)
	cases := []struct{ sql, want string }{
		{`SELECT nope FROM f`, "unknown column"},
		{`SELECT * FROM nope`, "unknown table"},
		{`SELECT r FROM f GROUP BY p`, "unknown column"},
		{`SELECT p, t, s FROM f SPREADSHEET DBY(p, t) MEA(s) ( z[1,2] = 3 )`, "not a MEA column"},
		{`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) UPDATE ( UPSERT s[t > 5, *] = 1 )`, "references other dimension"},
	}
	for _, c := range cases {
		_, err := db.Query(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error = %v, want contains %q", c.sql, err, c.want)
		}
	}
}

func TestQueryS3IndependentDimRewrite(t *testing.T) {
	// S3: formulas independent of p evaluate identically whether or not p
	// is promoted into the distribution key.
	db := newFactDB(t)
	q := `SELECT p, t, s FROM f WHERE r = 'west'
		SPREADSHEET DBY(p, t) MEA(s) UPDATE
		( F1: s[*,2002] = avg(s)[cv(p), t in (1998,2000)],
		  F2: s[*,2001] = avg(s)[cv(p), t in (1999,1997)] )
		ORDER BY p, t`
	base, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Parallel = 4
	cfg.PromoteIndependentDims = true
	db.Configure(cfg)
	promoted, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != len(promoted.Rows) {
		t.Fatalf("rows: %d vs %d", len(base.Rows), len(promoted.Rows))
	}
	for i := range base.Rows {
		for j := range base.Rows[i] {
			if base.Rows[i][j].String() != promoted.Rows[i][j].String() {
				t.Fatalf("promotion changed results at row %d: %v vs %v", i, base.Rows[i], promoted.Rows[i])
			}
		}
	}
	// The plan should note the promotion.
	explain, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "promoted independent dimension") {
		t.Errorf("promotion note missing:\n%s", explain)
	}
}

func TestS4UpsertWithPromotion(t *testing.T) {
	// UPSERT formulas must not create spurious rows when a dimension is
	// promoted (the paper's PE trigger-condition scenario).
	db := newFactDB(t)
	q := `SELECT p, t, s FROM f WHERE r = 'west'
		SPREADSHEET DBY(p, t) MEA(s)
		( F1: UPSERT s['dvd', 2005] = 1,
		  F2: UPSERT s['vcr', 2005] = 2,
		  F3: s[*, 2003] = s[cv(p), 2002] * 1.2 )
		ORDER BY p, t`
	base, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.Options()
	cfg.Parallel = 4
	cfg.PromoteIndependentDims = true
	db.Configure(cfg)
	promoted, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != len(promoted.Rows) {
		t.Fatalf("spurious rows under promotion: %d vs %d", len(base.Rows), len(promoted.Rows))
	}
}

// TestOperatorChainBound: a loop-built operator chain is as deep as it is
// long. 4,000 terms (51 s when every pass stringified or re-walked the chain
// per node) must plan and run in linear time, and 100,000 terms must be
// refused by the parser's depth bound, not handed to the recursive passes.
// The bounds are 250 ms, or — under the race detector or on a loaded host —
// a small multiple of what the same statement at 250 terms (resp. tokenizing
// alone) takes: linear either way.
func TestOperatorChainBound(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (a INT)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	chain := func(terms int) string { return "SELECT a" + strings.Repeat("+1", terms) + " AS x FROM t" }
	timed := func(sql string) (*sqlsheet.Result, error, time.Duration) {
		start := time.Now()
		res, err := db.Query(sql)
		return res, err, time.Since(start)
	}
	if _, err, _ := timed(chain(250)); err != nil { // warm-up: first-use costs are not the chain's
		t.Fatal(err)
	}
	_, _, ref := timed(chain(251))
	res, err, took := timed(chain(4000))
	if err != nil {
		t.Fatalf("4000 terms: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 4001 {
		t.Fatalf("4000 terms: got %v, want 4001", res.Rows)
	}
	if took > 250*time.Millisecond && took > 48*ref {
		t.Errorf("4000 terms took %v (251 terms: %v), want < 250ms", took, ref)
	}
	// With GROUP BY the rewriter has keys to look up at every node.
	res, err, took = timed("SELECT a" + strings.Repeat("+1", 4000) + ", count(*) FROM t GROUP BY a" + strings.Repeat("+1", 4000))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 4001 {
		t.Fatalf("4000 terms grouped: %v, %v", res, err)
	}
	if took > 250*time.Millisecond && took > 96*ref {
		t.Errorf("4000 terms grouped took %v (251 terms ungrouped: %v), want < 250ms", took, ref)
	}

	deep := chain(100000)
	start := time.Now()
	if _, err := parser.Fingerprint(deep); err != nil {
		t.Fatal(err)
	}
	lexTime := time.Since(start)
	_, err, took = timed(deep)
	if !errors.Is(err, parser.ErrTooDeep) {
		t.Fatalf("100000 terms: got %v, want an error wrapping parser.ErrTooDeep", err)
	}
	if took > 250*time.Millisecond && took > 4*lexTime {
		t.Errorf("100000 terms refused in %v (tokenizing alone %v), want < 250ms", took, lexTime)
	}
}
