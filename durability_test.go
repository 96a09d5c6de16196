package sqlsheet_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
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

// TestWALCheckpointRestoresEveryDefinition checkpoints the definitions a
// replay that re-validated or re-ran them would choke on — and recovery is
// strict, so choking means the database does not start: views and
// materialized views that read each other against alphabetical order, ones
// whose source table has been dropped, a materialized view whose query now
// fails on the data, and a stale one, which must come back as stale as it was.
func TestWALCheckpointRestoresEveryDefinition(t *testing.T) {
	dir := t.TempDir()
	db := walFactDB(t, dir, sqlsheet.SyncGroup)
	db.MustExec(`CREATE TABLE f (a INT, b INT)`)
	db.MustExec(`INSERT INTO f VALUES (1, 10), (2, 20)`)
	db.MustExec(`CREATE VIEW zb AS SELECT a, b FROM f`)
	db.MustExec(`CREATE VIEW aa AS SELECT a FROM zb`)
	db.MustExec(`CREATE MATERIALIZED VIEW zm AS SELECT a, b FROM f`)
	db.MustExec(`CREATE MATERIALIZED VIEW am AS SELECT a FROM zm`)
	db.MustExec(`CREATE VIEW av AS SELECT a FROM am`)
	db.MustExec(`CREATE MATERIALIZED VIEW ex AS SELECT a + 1, COUNT(*) FROM f GROUP BY a + 1`) // unnamed columns
	db.MustExec(`CREATE TABLE gone (x INT)`)
	db.MustExec(`INSERT INTO gone VALUES (7)`)
	db.MustExec(`CREATE MATERIALIZED VIEW orphan AS SELECT x FROM gone`)
	db.MustExec(`CREATE VIEW dangling AS SELECT x FROM gone`)
	db.MustExec(`DROP TABLE gone`)
	db.MustExec(`CREATE TABLE d (x INT)`)
	db.MustExec(`INSERT INTO d VALUES (2)`)
	db.MustExec(`CREATE MATERIALIZED VIEW frac AS SELECT 10 / x AS q FROM d`)
	db.MustExec(`UPDATE d SET x = 0`)
	if _, err := db.Exec(`REFRESH frac FULL`); err == nil {
		t.Fatal("frac still evaluates; the case needs a definition that fails")
	}
	db.MustExec(`INSERT INTO f VALUES (3, 30)`) // zm and am are now stale

	queries := []string{
		`SELECT a, b FROM zb ORDER BY a`, `SELECT a FROM aa ORDER BY a`,
		`SELECT a, b FROM zm ORDER BY a`, `SELECT a FROM am ORDER BY a`, `SELECT a FROM av ORDER BY a`,
		`SELECT x FROM orphan`, `SELECT q FROM frac`, `SELECT x FROM dangling`, `SELECT * FROM ex`,
	}
	same := func(stage string, want, got *sqlsheet.DB) {
		t.Helper()
		w := fmt.Sprint(want.Tables(), want.Views(), want.MatViews())
		if g := fmt.Sprint(got.Tables(), got.Views(), got.MatViews()); g != w {
			t.Fatalf("%s: recovered catalog %s, live %s", stage, g, w)
		}
		for _, q := range queries {
			wr, werr := want.Query(q)
			gr, gerr := got.Query(q)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) || (werr == nil && !sameResults(wr, gr)) {
				t.Fatalf("%s: %s\nlive:      %v (err %v)\nrecovered: %v (err %v)", stage, q, wr, werr, gr, gerr)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2 := recoverDB(t, dir)
	same("checkpoint", db, db2)
	if res := db2.MustExec(`SELECT a FROM zm`); len(res.Rows) != 2 {
		t.Fatalf("stale zm recovered with %d rows, want the 2 it had", len(res.Rows))
	}
	db2.Close()

	// Statements after the checkpoint that name the restored objects: they
	// applied live, so they must replay.
	for _, q := range []string{`DROP VIEW dangling`, `DROP MATERIALIZED VIEW orphan`, `REFRESH zm`, `REFRESH am`, `INSERT INTO f VALUES (4, 40)`, `REFRESH zm`} {
		db.MustExec(q)
	}
	if _, err := db.Exec(`REFRESH frac`); err == nil {
		t.Fatal("REFRESH frac succeeded")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db3 := recoverDB(t, dir)
	same("checkpoint + tail", db, db3)
	if res := db3.MustExec(`SELECT a FROM zm`); len(res.Rows) != 4 {
		t.Fatalf("refreshed zm recovered with %d rows, want 4", len(res.Rows))
	}
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

// TestWALRecoveryIsStrict: only mutations that succeeded are logged, so a
// well-framed record that does not decode or does not apply is a lost
// acknowledged statement, not a replayed failure: EnableWAL reports which
// record instead of carrying on without it. (The third log is what a build
// that logged before applying left behind after a failed INSERT.)
func TestWALRecoveryIsStrict(t *testing.T) {
	create := wal.EncodeCreate("t", []types.Column{{Name: "a", Kind: types.KindInt}})
	for _, c := range []struct {
		name string
		kind byte
		data []byte
		want string
	}{
		{"rows for a table nobody created", wal.KindRows, wal.EncodeRows("missing", []types.Row{{types.NewInt(1)}}), `record 2 (kind 'R')`},
		{"statement text that does not parse", wal.KindStmt, []byte(`INSERT INTO`), `record 2 (kind 'S')`},
		{"statement that fails", wal.KindStmt, []byte(`INSERT INTO t VALUES ('x')`), `record 2 (kind 'S')`},
		{"create record cut short", wal.KindCreate, create[:len(create)-2], `record 2 (kind 'C')`},
		{"kind no build writes", 'Q', nil, `record 2 (kind 'Q')`},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := wal.Open(dir, wal.SyncNone, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []struct {
				kind byte
				data []byte
			}{{wal.KindCreate, create}, {c.kind, c.data}, {wal.KindStmt, []byte(`INSERT INTO t VALUES (1)`)}} {
				if _, err := l.Append(rec.kind, rec.data); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			err = sqlsheet.Open().EnableWAL(dir, sqlsheet.SyncGroup)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("EnableWAL = %v, want an error naming %s", err, c.want)
			}
		})
	}
}

// TestLoadCSVParsesOutsideTheLock: LoadCSV reads its whole input before it
// takes the statement lock, so a reader that stalls holds up nobody.
func TestLoadCSVParsesOutsideTheLock(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE t (k TEXT, v INT)`)
	pr, pw := io.Pipe()
	loaded := make(chan error, 1)
	go func() {
		_, err := db.LoadCSV("t", pr, false)
		loaded <- err
	}()
	// The pipe is unbuffered: once this returns LoadCSV has consumed the
	// line and sits in the next Read, for as long as the test keeps it there.
	if _, err := pw.Write([]byte("a,1\n")); err != nil {
		t.Fatal(err)
	}
	inserted := make(chan error, 1)
	go func() {
		_, err := db.Exec(`INSERT INTO t VALUES ('b', 2)`)
		inserted <- err
	}()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("INSERT is waiting behind a LoadCSV whose reader has stalled")
	}
	pw.Close()
	if err := <-loaded; err != nil {
		t.Fatal(err)
	}
	if n := db.TableRows("t"); n != 2 {
		t.Fatalf("t has %d rows, want the INSERT's and the CSV's", n)
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
