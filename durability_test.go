package sqlsheet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlsheet"
)

// walFactDB builds the warehouse with the WAL attached from the start, so
// every mutation below is logged.
func walFactDB(t *testing.T, dir string, mode sqlsheet.SyncMode) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	if err := db.EnableWAL(dir, mode); err != nil {
		t.Fatal(err)
	}
	return db
}

// recoverDB opens a fresh database over the same log directory.
func recoverDB(t *testing.T, dir string) *sqlsheet.DB {
	t.Helper()
	db := sqlsheet.Open()
	if err := db.EnableWAL(dir, sqlsheet.SyncGroup); err != nil {
		t.Fatal(err)
	}
	return db
}

// populate drives every logged mutation path: SQL DDL/DML (statement
// records), programmatic CreateTable/Insert (create + rows records),
// LoadCSV (rows records), views and a materialized view.
func populate(t *testing.T, db *sqlsheet.DB) {
	t.Helper()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	for ti := 1995; ti <= 2002; ti++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO f VALUES ('west','dvd',%d,%d), ('east','vcr',%d,%d)`,
			ti, ti-1990, ti, 2*(ti-1990)))
	}
	db.MustExec(`UPDATE f SET s = s * 10 WHERE t = 2000`)
	db.MustExec(`DELETE FROM f WHERE t = 1996`)
	db.MustExec(`CREATE VIEW vw AS SELECT r, SUM(s) AS total FROM f GROUP BY r`)
	db.MustExec(`CREATE MATERIALIZED VIEW mv AS SELECT p, MAX(s) AS peak FROM f GROUP BY p`)

	if err := db.CreateTable("dims", sqlsheet.ColString("k"), sqlsheet.ColInt("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("dims", []any{"alpha", int64(1)}, []any{"beta", int64(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadCSV("dims", strings.NewReader("k,v\ngamma,3\ndelta,4\n"), true); err != nil {
		t.Fatal(err)
	}
}

// stateQueries covers every object populate creates, including a
// spreadsheet clause so recovered state feeds the full engine.
var stateQueries = []string{
	`SELECT r, p, t, s FROM f ORDER BY r, p, t`,
	`SELECT r, total FROM vw ORDER BY r`,
	`SELECT p, peak FROM mv ORDER BY p`,
	`SELECT k, v FROM dims ORDER BY k`,
	`SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( s[*, 2002] = s[cv(p), 2001] * 2 )`,
}

func assertSameState(t *testing.T, want, got *sqlsheet.DB) {
	t.Helper()
	for _, q := range stateQueries {
		w, err := want.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		g, err := got.Query(q)
		if err != nil {
			t.Fatalf("recovered %s: %v", q, err)
		}
		if !sameResults(w, g) {
			t.Fatalf("recovered state differs for %s:\noriginal:  %v\nrecovered: %v", q, w.Rows, g.Rows)
		}
	}
}

func TestWALRecoverRoundTrip(t *testing.T) {
	for _, mode := range []sqlsheet.SyncMode{sqlsheet.SyncGroup, sqlsheet.SyncAlways, sqlsheet.SyncNone} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			dir := t.TempDir()
			db := walFactDB(t, dir, mode)
			populate(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db2 := recoverDB(t, dir)
			c, ok := db2.WALCounters()
			if !ok || c.Replayed == 0 {
				t.Fatalf("no records replayed (counters %+v ok=%v)", c, ok)
			}
			assertSameState(t, db, db2)
		})
	}
}

// TestWALCheckpointRecover compacts the log into a snapshot segment and
// verifies recovery from the compacted form alone.
func TestWALCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	populate(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c, _ := db.WALCounters()
	if c.Checkpoints != 1 || c.Segments != 1 {
		t.Fatalf("after checkpoint: %+v, want 1 checkpoint and 1 segment", c)
	}
	// Post-checkpoint mutations append to the compacted log.
	db.MustExec(`INSERT INTO f VALUES ('north','tv',2002,42)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := recoverDB(t, dir)
	assertSameState(t, db, db2)
}

// TestWALCheckpointCrashWindow simulates a kill between a checkpoint
// becoming durable and the removal of the history it compacted: recovery
// must rebuild from the checkpoint alone — replaying the leftover history
// and the checkpoint together would re-insert every row.
func TestWALCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	populate(t, db)
	preCP, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`INSERT INTO f VALUES ('north','tv',2002,42)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-checkpoint segment, as if the crash interrupted
	// its removal.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), preCP, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := recoverDB(t, dir)
	assertSameState(t, db, db2)
	res, err := db2.Query(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0][0]); got != "15" {
		t.Fatalf("recovered f has %s rows, want 15 (duplicated checkpoint replay?)", got)
	}
}

// TestWALReplayedFailureIsDeterministic: a failing statement is logged
// before it applies, so recovery re-fails it the same way and converges on
// the same state.
func TestWALReplayedFailureIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	db.MustExec(`CREATE TABLE t (a INT)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	// Batch where the second statement fails: the first stays applied
	// (statement-level atomicity), and both are in the log.
	if _, err := db.Exec(`INSERT INTO t VALUES (2); INSERT INTO missing VALUES (3)`); err == nil {
		t.Fatal("expected error from INSERT into missing table")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := recoverDB(t, dir)
	w := db.MustExec(`SELECT a FROM t ORDER BY a`)
	g, err := db2.Query(`SELECT a FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(w, g) {
		t.Fatalf("recovered %v, want %v", g.Rows, w.Rows)
	}
}

// TestWALRecoverAPB: an APB install is logged as its scale parameters and
// regenerated deterministically at recovery.
func TestWALRecoverAPB(t *testing.T) {
	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	scale := sqlsheet.APBScale{ProductFanout: []int{2, 2}, Channels: 2, Customers: 4, Years: 2, Density: 1}
	if _, err := db.InstallAPB(scale); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := recoverDB(t, dir)
	for _, tbl := range db.Tables() {
		if db.TableRows(tbl) != db2.TableRows(tbl) {
			t.Fatalf("table %s: %d rows recovered, want %d", tbl, db2.TableRows(tbl), db.TableRows(tbl))
		}
	}
}

// TestWALInterleavedDMLRecovers: a log of interleaved INSERTs, UPDATEs and
// DELETEs — the statements that find their rows by kernel over a derived
// image, and the ones that change the image's representation under the next
// statement — recovers the state a serial run without a log produces. It also
// holds the failed multi-row INSERT to its all-or-nothing promise on both
// sides of a crash: the row before the failing one is in neither.
func TestWALInterleavedDMLRecovers(t *testing.T) {
	script := []string{
		`CREATE TABLE g (k TEXT, h TEXT, n INT, s FLOAT)`,
		`INSERT INTO g VALUES ('a', 'x', 1, 1.5), ('b', 'y', 2, 2.5), ('a', 'y', 3, 3.5), ('c', 'x', 4, 4.5)`,
		`UPDATE g SET s = s + 10 WHERE k = 'a' AND h = 'y'`,
		`INSERT INTO g VALUES ('d', 'x', 5, 5.5), ('a', 'x', 6, 6.5)`,
		`DELETE FROM g WHERE n BETWEEN 2 AND 3 AND h IN ('y')`,
		`INSERT INTO g VALUES ('e', 'z', 7, NULL)`,
		`UPDATE g SET k = 'fresh' WHERE s IS NULL OR k = 'd'`,
		`UPDATE g SET n = n * 2 WHERE n % 2 = 0`,
		`INSERT INTO g VALUES ('f', 'z', 8, 8.5), ('g', 'z', 'nine', 9.5)`,
		`DELETE FROM g WHERE k = 'nobody'`,
		`INSERT INTO g VALUES ('h', 'x', 10, 10.5)`,
		`UPDATE g SET s = NULL WHERE k LIKE 'f%'`,
		`DELETE FROM g WHERE h = 'x' AND s > 5`,
		`INSERT INTO g VALUES ('i', 'y', 11, 11.5)`,
	}
	run := func(db *sqlsheet.DB) {
		for _, stmt := range script {
			if _, err := db.Exec(stmt); err != nil && !strings.Contains(stmt, "'nine'") {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}
	serial := sqlsheet.Open()
	run(serial)

	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	run(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := recoverDB(t, dir)
	for _, got := range []*sqlsheet.DB{db, db2} {
		w := serial.MustExec(`SELECT * FROM g`)
		g, err := got.Query(`SELECT * FROM g`)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(w, g) {
			t.Fatalf("state differs from the serial run:\nserial: %v\ngot:    %v", w.Rows, g.Rows)
		}
		if r := got.MustExec(`SELECT COUNT(*) FROM g WHERE k IN ('f', 'g')`); r.Rows[0][0].Int() != 0 {
			t.Fatalf("the failed INSERT left %v of its rows behind", r.Rows[0][0])
		}
	}
	if c := db2.ImageCounters(); c.Derived == 0 {
		t.Errorf("recovery derived no image: %+v", c)
	}
}
