package sqlsheet_test

import (
	"fmt"
	"strings"
	"testing"

	"sqlsheet"
)

// TestCanonicalSQLKeepsQualifierKinds: a predicate qualifier stays a
// predicate in every consumer of a statement's canonical text — the WAL's
// statement records, a checkpoint's view definitions and the plan and result
// cache's statement key. Live, u[*] = sum(m)[d <= cv(d)] gives the running
// sums 1, 3, 6, 10, 15; read back as the point qualifier [(d <= cv(d))] the
// same rule gives NULL in every row.
func TestCanonicalSQLKeepsQualifierKinds(t *testing.T) {
	const sheet = `SELECT d, u FROM t SPREADSHEET DBY (d) MEA (m, u) ( u[*] = sum(m)[%s] )`
	pred, point := fmt.Sprintf(sheet, "d <= cv(d)"), fmt.Sprintf(sheet, "(d <= cv(d))")
	const want = "1 3 6 10 15"
	setup := func(db *sqlsheet.DB) *sqlsheet.DB {
		db.MustExec(`CREATE TABLE t (d INT, m INT, u INT)`)
		db.MustExec(`INSERT INTO t VALUES (1, 1, 0), (2, 2, 0), (3, 3, 0), (4, 4, 0), (5, 5, 0)`)
		return db
	}
	// us renders the u column (the second) of q's rows.
	us := func(t *testing.T, db *sqlsheet.DB, q string) string {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = row[1].String()
		}
		return strings.Join(out, " ")
	}

	t.Run("wal-statement", func(t *testing.T) {
		dir := t.TempDir()
		db := setup(walFactDB(t, dir, sqlsheet.SyncGroup))
		db.MustExec(`CREATE TABLE out (d INT, u INT)`)
		db.MustExec(`INSERT INTO out ` + pred)
		const q = `SELECT d, u FROM out ORDER BY d`
		if got := us(t, db, q); got != want {
			t.Fatalf("live: u = %s, want %s", got, want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if got := us(t, recoverDB(t, dir), q); got != want {
			t.Fatalf("recovered: u = %s, want %s", got, want)
		}
	})

	t.Run("checkpoint-view", func(t *testing.T) {
		dir := t.TempDir()
		db := setup(walFactDB(t, dir, sqlsheet.SyncGroup))
		db.MustExec(`CREATE VIEW v AS ` + pred)
		const q = `SELECT d, u FROM v ORDER BY d`
		if got := us(t, db, q); got != want {
			t.Fatalf("live: u = %s, want %s", got, want)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if got := us(t, recoverDB(t, dir), q); got != want {
			t.Fatalf("recovered: u = %s, want %s", got, want)
		}
	})

	t.Run("cache-key", func(t *testing.T) {
		db := setup(sqlsheet.Open())
		if got := us(t, db, pred+` ORDER BY d`); got != want {
			t.Fatalf("predicate: u = %s, want %s", got, want)
		}
		fresh := us(t, setup(sqlsheet.Open()), point+` ORDER BY d`)
		if fresh == want {
			t.Fatalf("point: u = %s on a fresh database, the predicate's rows", fresh)
		}
		if got := us(t, db, point+` ORDER BY d`); got != fresh {
			t.Fatalf("point after predicate: u = %s, want %s as on a fresh database", got, fresh)
		}
	})
}
