package sqlsheet_test

import (
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/core"
)

func TestReturnUpdatedRowsSQL(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT r, p, t, s FROM f
		SPREADSHEET RETURN UPDATED ROWS PBY(r) DBY (p, t) MEA (s)
		(
		  s['dvd', 2002] = s['dvd', 2001] * 2,
		  UPSERT s['video', 2002] = 1
		)`)
	if err != nil {
		t.Fatal(err)
	}
	// Two partitions × two touched cells.
	if len(res.Rows) != 4 {
		t.Fatalf("RETURN UPDATED ROWS kept %d rows: %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if p := row[1].String(); p != "dvd" && p != "video" {
			t.Errorf("unexpected row: %v", row)
		}
		if row[2].Int() != 2002 {
			t.Errorf("unexpected year: %v", row)
		}
	}
}

func TestForFromToSQL(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE cal (d INT, v FLOAT)`)
	db.MustExec(`INSERT INTO cal VALUES (0, 100)`)
	res, err := db.Query(`
		SELECT d, v FROM cal
		SPREADSHEET DBY (d) MEA (v) IGNORE NAV
		(
		  UPSERT v[FOR d FROM 1 TO 5] = 0,
		  UPDATE v[d > 0] ORDER BY d ASC = v[cv(d)-1] * 1.1
		)
		ORDER BY d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Compounding: v[5] = 100 * 1.1^5.
	got := res.Rows[5][1].Float()
	want := 100 * 1.1 * 1.1 * 1.1 * 1.1 * 1.1
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("v[5] = %v, want %v", got, want)
	}
}

func TestUniqueDimensionSQL(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (x INT, s FLOAT)`)
	db.MustExec(`INSERT INTO t VALUES (1, 1), (1, 2)`)
	_, err := db.Query(`SELECT x, s FROM t SPREADSHEET DBY (x) MEA (s) ( s[1] = 0 )`)
	if err == nil || !strings.Contains(err.Error(), "uniquely identify") {
		t.Fatalf("duplicate dimension error missing: %v", err)
	}
	// GROUP BY restores uniqueness.
	res, err := db.Query(`SELECT x, s FROM t GROUP BY x SPREADSHEET DBY (x) MEA (sum(s) s) ( s[2] = s[1] + 10 )`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Float() != 13 {
		t.Errorf("grouped = %v", res.Rows)
	}
}

// refKeyDB holds a main sheet over p ∈ {a, b, NULL} and a product → parent
// table d, filled by the caller.
func refKeyDB(t *testing.T, parents string) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (p TEXT, s FLOAT)`)
	db.MustExec(`INSERT INTO f VALUES ('a', 1), ('b', 2), (NULL, 3)`)
	db.MustExec(`CREATE TABLE d (p TEXT, par TEXT)`)
	db.MustExec(`INSERT INTO d VALUES ` + parents)
	return db
}

const refKeyQuery = `SELECT p, s, u FROM f
	SPREADSHEET REFERENCE pr ON (SELECT p, par FROM d) DBY (p) MEA (par)
	DBY (p) MEA (s, 0 u)
	( UPDATE u[*] = s[par[cv(p)]] )
	ORDER BY p`

// refKeyConfigs runs the reference read per cell and as one batch.
var refKeyConfigs = []sqlsheet.Config{
	{Ablate: sqlsheet.Ablation{Engine: core.Ablation{DisableVectorizedRules: true}}},
	{Ablate: sqlsheet.Ablation{Engine: core.Ablation{VecMinRows: 1}}},
}

// TestReferenceSheetDuplicateKey: a reference sheet's DBY columns must
// identify a row, as the main sheet's must — two rows for 'a' are an error
// naming the sheet, not a lookup that silently reads the last of them.
func TestReferenceSheetDuplicateKey(t *testing.T) {
	db := refKeyDB(t, `('a', 'b'), ('a', 'a')`)
	for _, cfg := range refKeyConfigs {
		db.Configure(cfg)
		_, err := db.Query(refKeyQuery)
		if err == nil || !strings.Contains(err.Error(), "do not uniquely identify") || !strings.Contains(err.Error(), "reference sheet pr") {
			t.Fatalf("duplicate reference key: err = %v", err)
		}
	}
}

// TestReferenceSheetNullKey: one NULL key is a key like any other, on the
// reference sheet as on the main sheet — a NULL cv(p) reads the reference
// row keyed NULL, and 'b', which the sheet lacks, reads a NULL parent, whose
// cell is the main sheet's NULL row.
func TestReferenceSheetNullKey(t *testing.T) {
	db := refKeyDB(t, `(NULL, 'b'), ('a', 'b')`)
	for _, cfg := range refKeyConfigs {
		db.Configure(cfg)
		res, err := db.Query(refKeyQuery)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, r := range res.Rows {
			got[r[0].String()] = r[2].String()
		}
		if got["a"] != "2" || got["NULL"] != "2" || got["b"] != "3" || len(got) != 3 {
			t.Fatalf("u by p = %v (rows %v)", got, res.Rows)
		}
	}
}

func TestModelKeywordAlias(t *testing.T) {
	db := newFactDB(t)
	res, err := db.Query(`
		SELECT r, p, t, s FROM f
		MODEL RETURN UPDATED ROWS PARTITION BY (r) DIMENSION BY (p, t) MEASURES (s)
		RULES UPDATE
		( s['dvd', 2002] = 99 )`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][3].Float() != 99 {
		t.Errorf("MODEL alias broken: %v", res.Rows)
	}
}

func TestDeleteAndUpdateDML(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (a INT, b TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (1,'x'),(2,'y'),(3,'z'),(4,'w')`)
	res := db.MustExec(`UPDATE t SET b = 'upd', a = a * 10 WHERE a >= 3`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("update count = %v", res.Rows[0][0])
	}
	out, err := db.Query(`SELECT a, b FROM t WHERE b = 'upd' ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 || out.Rows[0][0].Int() != 30 || out.Rows[1][0].Int() != 40 {
		t.Fatalf("updated rows = %v", out.Rows)
	}
	res = db.MustExec(`DELETE FROM t WHERE a > 15`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("delete count = %v", res.Rows[0][0])
	}
	out, _ = db.Query(`SELECT COUNT(*) FROM t`)
	if out.Rows[0][0].Int() != 2 {
		t.Fatalf("remaining = %v", out.Rows[0][0])
	}
	res = db.MustExec(`DELETE FROM t`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("delete-all count = %v", res.Rows[0][0])
	}
	// Errors.
	if _, err := db.Exec(`UPDATE t SET nope = 1`); err == nil {
		t.Error("unknown column must fail")
	}
	if _, err := db.Exec(`DELETE FROM missing`); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestDeleteForcesFullMVRefresh(t *testing.T) {
	db := newFactDB(t)
	db.MustExec(`CREATE MATERIALIZED VIEW dm AS
		SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`)
	db.MustExec(`DELETE FROM f WHERE r = 'east' AND t < 1995`)
	rr := db.MustExec(`REFRESH dm`)
	if rr.Rows[0][0].String() != "full" {
		t.Fatalf("shrunk source must force full refresh, got %v", rr.Rows[0])
	}
	// DML against the MV itself is rejected.
	if _, err := db.Exec(`DELETE FROM dm`); err == nil {
		t.Error("DML on a materialized view must fail")
	}
	if _, err := db.Exec(`UPDATE dm SET s = 0`); err == nil {
		t.Error("UPDATE on a materialized view must fail")
	}
}
