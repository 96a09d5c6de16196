package sqlsheet_test

import (
	"strings"
	"testing"

	"sqlsheet"
)

func TestViewWithSpreadsheetPrunes(t *testing.T) {
	// The paper's §4 scenario verbatim: applications encapsulate formulas
	// in views; user queries over the view prune unneeded formulas.
	db := newFactDB(t)
	db.MustExec(`CREATE VIEW forecasts AS
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		(
		F1: s['dvd',2000] = s['dvd', 1999]*1.2,
		F2: s['vcr',2000] = s['vcr',1998] + s['vcr',1999],
		F3: s['tv', 2000] = avg(s)['tv', 1990<t<2000]
		)`)
	explain, err := db.Explain(`SELECT * FROM forecasts WHERE p IN ('dvd', 'vcr', 'video')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "pruned formula f3") {
		t.Errorf("view query did not prune F3:\n%s", explain)
	}
	res, err := db.Query(`SELECT p, s FROM forecasts WHERE r = 'west' AND p = 'dvd' AND t = 2000`)
	if err != nil {
		t.Fatal(err)
	}
	// west dvd 1999 = 9 → 10.8.
	approx(t, res.Rows[0][1], 10.8, "view result")
	// The view is reusable with different predicates (fresh plan each time).
	res, err = db.Query(`SELECT p, s FROM forecasts WHERE r = 'west' AND p = 'tv' AND t = 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("second view query rows = %d", len(res.Rows))
	}
}

func TestViewWithAggregatesReplans(t *testing.T) {
	// Views whose MEA items carry aggregates must plan repeatedly without
	// corrupting the stored AST.
	db := newFactDB(t)
	db.MustExec(`CREATE VIEW totals AS
		SELECT r, t, s FROM f GROUP BY r, t
		SPREADSHEET PBY(r) DBY (t) MEA (sum(s) s)
		( UPSERT s[2005] = s[2002] * 2 )`)
	for i := 0; i < 3; i++ {
		res, err := db.Query(`SELECT s FROM totals WHERE r = 'west' AND t = 2005`)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		// west 2002 total = 12 + 24 + 36 = 72 → 144.
		approx(t, res.Rows[0][0], 144, "aggregated view")
	}
}

func TestViewErrorsAndDrop(t *testing.T) {
	db := newFactDB(t)
	if _, err := db.Exec(`CREATE VIEW v AS SELECT nope FROM f`); err == nil {
		t.Error("invalid view definition must fail at CREATE")
	}
	db.MustExec(`CREATE VIEW v AS SELECT p FROM f`)
	if _, err := db.Exec(`CREATE VIEW v AS SELECT p FROM f`); err == nil {
		t.Error("duplicate view must fail")
	}
	if _, err := db.Exec(`CREATE TABLE v (a INT)`); err == nil {
		t.Error("table/view name conflict must fail")
	}
	db.MustExec(`DROP VIEW v`)
	if _, err := db.Query(`SELECT * FROM v`); err == nil {
		t.Error("dropped view must be gone")
	}
	if _, err := db.Exec(`DROP TABLE nonexistent`); err == nil {
		t.Error("dropping unknown object must fail")
	}
}

// TestCreateForceView: FORCE registers a definition as given — a view over
// what does not exist (yet), a materialized view over the table that already
// holds its rows, whose first REFRESH is a full one.
func TestCreateForceView(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE FORCE VIEW v AS SELECT x FROM later`)
	if _, err := db.Query(`SELECT x FROM v`); err == nil {
		t.Error("a view over a missing table must fail when queried")
	}
	db.MustExec(`CREATE TABLE later (x INT)`)
	db.MustExec(`INSERT INTO later VALUES (5)`)
	if res := db.MustExec(`SELECT x FROM v`); len(res.Rows) != 1 {
		t.Errorf("forced view over a table created later: %v", res.Rows)
	}
	if _, err := db.Exec(`CREATE FORCE VIEW v AS SELECT x FROM later`); err == nil {
		t.Error("FORCE must not replace an existing view")
	}

	db.MustExec(`CREATE TABLE pre (x INT)`)
	db.MustExec(`INSERT INTO pre VALUES (1), (2)`)
	db.MustExec(`CREATE FORCE MATERIALIZED VIEW pre AS SELECT x FROM later`)
	if res := db.MustExec(`SELECT x FROM pre`); len(res.Rows) != 2 {
		t.Errorf("adopted rows: %v, want the table's 2", res.Rows)
	}
	if _, err := db.Exec(`CREATE FORCE MATERIALIZED VIEW pre AS SELECT x FROM later`); err == nil {
		t.Error("FORCE must not replace an existing materialized view")
	}
	if rr := db.MustExec(`REFRESH pre`); rr.Rows[0][0].String() != "full" {
		t.Errorf("first refresh of an adopted table = %v, want full", rr.Rows[0])
	}
	if res := db.MustExec(`SELECT x FROM pre`); len(res.Rows) != 1 || res.Rows[0][0].String() != "5" {
		t.Errorf("after refresh: %v, want the definition's one row", res.Rows)
	}
	// An adopted table has no refresh bookmarks until that first refresh.
	db.MustExec(`CREATE TABLE sheet (r TEXT, p TEXT, t INT, s FLOAT)`)
	db.MustExec(`CREATE FORCE MATERIALIZED VIEW sheet AS SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) ( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`)
	for _, want := range []string{"full", "noop", "incremental"} {
		if want == "incremental" {
			db.MustExec(`INSERT INTO f VALUES ('west', 'tv', 2003, 1, 1)`)
		}
		if rr := db.MustExec(`REFRESH sheet`); rr.Rows[0][0].String() != want {
			t.Errorf("refresh of an adopted sheet = %v, want %s", rr.Rows[0], want)
		}
	}
	db.MustExec(`CREATE TABLE wide (x INT, y INT)`)
	db.MustExec(`CREATE FORCE MATERIALIZED VIEW wide AS SELECT x FROM later`)
	if _, err := db.Exec(`REFRESH wide`); err == nil {
		t.Error("a refresh must not fill a two-column table with one-column rows")
	}
	// With no table to adopt it is CREATE MATERIALIZED VIEW.
	db.MustExec(`CREATE FORCE MATERIALIZED VIEW fresh AS SELECT x FROM later`)
	if res := db.MustExec(`SELECT x FROM fresh`); len(res.Rows) != 1 {
		t.Errorf("forced materialized view without a table: %v", res.Rows)
	}
}

func TestMaterializedViewFullCycle(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE MATERIALIZED VIEW mv AS
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`)
	res, err := db.Query(`SELECT s FROM mv WHERE r = 'west' AND p = 'video'`)
	if err != nil {
		t.Fatal(err)
	}
	// west tv 2002 = 36, vcr 2002 = 24 → 60.
	approx(t, res.Rows[0][0], 60, "materialized value")

	// No changes: refresh is a no-op.
	rr := db.MustExec(`REFRESH mv`)
	if rr.Rows[0][0].String() != "noop" {
		t.Errorf("refresh mode = %v", rr.Rows[0])
	}

	// Append new fact rows for ONE partition; refresh must be incremental
	// and only that partition recomputed.
	db.MustExec(`INSERT INTO f VALUES ('west', 'tv', 2003, 50, 25), ('west', 'vcr', 2003, 7, 3)`)
	rr = db.MustExec(`REFRESH mv`)
	if rr.Rows[0][0].String() != "incremental" {
		t.Fatalf("refresh mode = %v", rr.Rows[0])
	}
	res, err = db.Query(`SELECT p, t, s FROM mv WHERE r = 'west' AND t = 2003 ORDER BY p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("new rows not propagated: %v", res.Rows)
	}
	// The untouched east partition must be intact.
	res, err = db.Query(`SELECT s FROM mv WHERE r = 'east' AND p = 'video'`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("east partition lost: %v %v", res.Rows, err)
	}

	// Incremental result must equal a full recompute.
	incr, err := db.Query(`SELECT * FROM mv ORDER BY r, p, t`)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`REFRESH mv FULL`)
	full, err := db.Query(`SELECT * FROM mv ORDER BY r, p, t`)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(incr, full) {
		t.Fatal("incremental refresh diverged from full recompute")
	}
}

func TestMaterializedViewFullFallbacks(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE TABLE budget (r TEXT, factor FLOAT)`)
	db.MustExec(`INSERT INTO budget VALUES ('west', 1.5), ('east', 2.0)`)
	// A reference sheet over a second table: changes to it force a full
	// refresh.
	db.MustExec(`CREATE MATERIALIZED VIEW mv2 AS
		SELECT r, t, s FROM f GROUP BY r, t
		SPREADSHEET
		  REFERENCE b ON (SELECT r, factor FROM budget) DBY(r) MEA(factor)
		  PBY(r) DBY (t) MEA (sum(s) s)
		( UPSERT s[2005] = s[2002] * factor[cv(r)] )`)
	before, err := db.Query(`SELECT s FROM mv2 WHERE r = 'west' AND t = 2005`)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, before.Rows[0][0], 72*1.5, "mv2 initial")

	db.MustExec(`INSERT INTO budget VALUES ('north', 9.9)`)
	rr := db.MustExec(`REFRESH mv2`)
	if rr.Rows[0][0].String() != "full" {
		t.Errorf("secondary-source change must force full refresh, got %v", rr.Rows[0])
	}

	// A view without PBY columns always refreshes fully.
	db.MustExec(`CREATE MATERIALIZED VIEW mv3 AS
		SELECT t, s FROM f WHERE r = 'west' AND p = 'dvd'
		SPREADSHEET DBY (t) MEA (s) ( UPSERT s[2005] = 1 )`)
	db.MustExec(`INSERT INTO f VALUES ('west', 'dvd', 2004, 3, 1)`)
	rr = db.MustExec(`REFRESH mv3`)
	if rr.Rows[0][0].String() != "full" {
		t.Errorf("PBY-less view must refresh fully, got %v", rr.Rows[0])
	}
}

func TestMaterializedViewUnknownRefresh(t *testing.T) {
	db := newFactDB(t)
	if _, err := db.Exec(`REFRESH nothere`); err == nil {
		t.Error("refreshing unknown MV must fail")
	}
	db.MustExec(`CREATE VIEW pv AS SELECT p FROM f`)
	if _, err := db.Exec(`REFRESH pv`); err == nil {
		t.Error("refreshing a plain view must fail")
	}
}

func TestMVExactMatchRewrite(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE MATERIALIZED VIEW mvr AS
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`)

	q := `SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )) v
		WHERE p = 'video' ORDER BY r`
	// Without rewrite: the plan contains a Spreadsheet node.
	explain, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "Spreadsheet") {
		t.Fatalf("expected spreadsheet plan:\n%s", explain)
	}
	base, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	// With rewrite: the plan scans the MV instead.
	cfg := db.Options()
	cfg.EnableMVRewrite = true
	db.Configure(cfg)
	explain, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "Spreadsheet") || !strings.Contains(explain, "Scan mvr") {
		t.Fatalf("expected MV scan plan:\n%s", explain)
	}
	rewritten, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(base, rewritten) {
		t.Fatal("MV rewrite changed results")
	}

	// A near-miss definition (different constant) must NOT rewrite.
	explain, err = db.Explain(`SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		 ( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2001] )) v
		WHERE p = 'video'`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "Scan mvr") {
		t.Fatalf("near-miss must not rewrite:\n%s", explain)
	}
}

func TestUpdateForcesFullMVRefresh(t *testing.T) {
	// An in-place UPDATE leaves the row count unchanged; the version
	// counter must still force a full (correct) refresh rather than a
	// stale noop.
	db := newFactDB(t)
	db.MustExec(`CREATE MATERIALIZED VIEW um AS
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`)
	db.MustExec(`UPDATE f SET s = 1000 WHERE r = 'west' AND p = 'tv' AND t = 2002`)
	rr := db.MustExec(`REFRESH um`)
	if rr.Rows[0][0].String() != "full" {
		t.Fatalf("in-place update must force full refresh, got %v", rr.Rows[0])
	}
	res, err := db.Query(`SELECT s FROM um WHERE r = 'west' AND p = 'video'`)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, res.Rows[0][0], 1024, "refreshed value") // 1000 + vcr 24
}

// TestMVRefreshSeesEverySourceTable: a source a view reads only through a
// subquery in a MEA expression is a source all the same. When it changes, a
// refresh after an append to the main table must not recompute just the
// appended partition and leave the others on the old value.
func TestMVRefreshSeesEverySourceTable(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	db.MustExec(`INSERT INTO f VALUES ('west', 'dvd', 2001, 5), ('east', 'dvd', 2001, 5)`)
	db.MustExec(`CREATE TABLE d (x INT)`)
	db.MustExec(`INSERT INTO d VALUES (2)`)
	db.MustExec(`CREATE MATERIALIZED VIEW mv AS
		SELECT r, p, t, s, k FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s, (SELECT MAX(x) FROM d) AS k)
		( UPSERT s['dvd', 2002] = s['dvd', 2001] * k['dvd', 2001] )`)
	db.MustExec(`UPDATE d SET x = 3`)
	db.MustExec(`INSERT INTO f VALUES ('west', 'vcr', 2001, 1)`)
	rr := db.MustExec(`REFRESH mv`)
	if mode := rr.Rows[0][0].String(); mode != "full" {
		t.Errorf("REFRESH after a change to d ran %s, want full", mode)
	}
	const q = `SELECT r, p, t, s, k FROM mv ORDER BY r, p, t`
	got := db.MustExec(q)
	db.MustExec(`REFRESH mv FULL`)
	if want := db.MustExec(q); !sameResults(want, got) {
		t.Errorf("REFRESH left %v, REFRESH FULL gives %v", got.Rows, want.Rows)
	}
}
