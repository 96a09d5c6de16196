package sqlsheet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
)

// dbState is everything a statement can leave behind: the catalog's name
// lists and each table's master rows, version and published image, plus the
// number of records the log holds.
type dbState struct {
	names   string
	tables  map[string]tableState
	appends int64
}

type tableState struct {
	rows    string
	version int64
	img     *mvcc.Image
	schema  string // names and kinds: a pin shows here
}

func stateOf(db *DB) dbState {
	st := dbState{
		names:  fmt.Sprint(db.Tables(), db.Views(), db.MatViews()),
		tables: map[string]tableState{},
	}
	for _, name := range db.Tables() {
		t, _ := db.cat.Get(name)
		st.tables[name] = tableState{rows: fmt.Sprint(t.Rows), version: t.Version.Load(), img: t.Img(), schema: fmt.Sprint(t.Schema.Cols)}
	}
	if c, ok := db.WALCounters(); ok {
		st.appends = c.Appends
	}
	return st
}

func (a dbState) diff(b dbState) string {
	if a.names != b.names {
		return fmt.Sprintf("catalog names %s, were %s", b.names, a.names)
	}
	for name, ta := range a.tables {
		if tb := b.tables[name]; ta != tb {
			return fmt.Sprintf("table %s is %+v, was %+v", name, tb, ta)
		}
	}
	if a.appends != b.appends {
		return fmt.Sprintf("log holds %d records, held %d", b.appends, a.appends)
	}
	return ""
}

// StoredKindsError checks the storage contract on every table's published
// image: the image has a columnar form, and every column of it that is not
// all NULL has its schema's kind. It is exported for the external tests.
func (db *DB) StoredKindsError() error {
	for _, name := range db.Tables() {
		t, _ := db.cat.Get(name)
		img, schema := t.Img().Columnar(), t.ReadSchema()
		if img == nil {
			return fmt.Errorf("table %s: its image has no columnar form", name)
		}
		for ci, c := range img.Cols {
			if want := schema.Cols[ci].Kind; c.Kind != types.KindNull && c.Kind != want {
				return fmt.Errorf("table %s column %s: %s values in a %s column", name, schema.Cols[ci].Name, c.Kind, want)
			}
		}
	}
	return nil
}

// countdownCtx cancels itself at the n-th poll of Done: the executor polls
// once per operator it starts, so a small n lands inside a running statement.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Done()
}

// TestWALFailedStatementLeavesNoTrace: whatever way a mutation fails and
// whichever public call carried it, the tables, their versions and published
// images, the catalog's names and the log are afterwards what they were — and
// since nothing of it is in the log, a database recovered from the log equals
// the live one.
func TestWALFailedStatementLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	db := Open()
	if err := db.EnableWAL(dir, SyncGroup); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE TABLE g (k TEXT, n INT, s FLOAT)`,
		`INSERT INTO g VALUES ('a', 1, 1.5), ('b', 2, 2.5), ('c', 3, 3.5), ('d', 4, 4.5)`,
		`CREATE TABLE d (x INT)`,
		`INSERT INTO d VALUES (1)`,
		`CREATE TABLE time_dt (m TEXT)`,
		`CREATE MATERIALIZED VIEW mv AS SELECT k, n, s FROM g
			SPREADSHEET PBY(k) DBY(n) MEA(s) (UPSERT s[99] = s[1] * 2)`,
		// From here on mv's query fails (n no longer identifies a row of
		// partition 'a'), under an incremental refresh — g only grew — and a
		// full one alike.
		`INSERT INTO g VALUES ('a', 1, 9.9)`,
	} {
		db.MustExec(q)
	}
	exec := func(sql string) func() error {
		return func() error { _, err := db.Exec(sql); return err }
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"multi-row INSERT, one row uncoercible", exec(`INSERT INTO g VALUES ('e', 5, 5.5), ('f', 'six', 6.5)`)},
		{"UPDATE whose SET fails mid-table", exec(`UPDATE g SET n = CASE WHEN k = 'c' THEN 'bad' ELSE n + 1 END`)},
		{"DELETE whose predicate errors", exec(`DELETE FROM g WHERE n = (SELECT n FROM g)`)},
		{"REFRESH, incremental", exec(`REFRESH mv`)},
		{"REFRESH FULL", exec(`REFRESH mv FULL`)},
		{"CREATE MATERIALIZED VIEW over a table", exec(`CREATE MATERIALIZED VIEW g AS SELECT x FROM d`)},
		{"CREATE MATERIALIZED VIEW over itself", exec(`CREATE MATERIALIZED VIEW mv AS SELECT x FROM d`)},
		{"context cancelled mid-UPDATE", func() error {
			ctx := &countdownCtx{}
			ctx.Context, ctx.cancel = context.WithCancel(context.Background())
			defer ctx.cancel()
			ctx.left.Store(3) // one poll per row's subquery: cancels inside the third row
			_, err := db.ExecContext(ctx, `UPDATE g SET s = s + (SELECT MAX(x) FROM d WHERE x <= n)`)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("UPDATE under a cancelling context failed with %v, want context.Canceled", err)
			}
			return err
		}},
		{"LoadCSV, record 2 of 3 short", func() error {
			_, err := db.LoadCSV("g", strings.NewReader("k,n,s\nv,7,7.5\nw,8\nx,9,9.5\n"), true)
			return err
		}},
		{"LoadCSV, record 2 of 3 uncoercible", func() error {
			_, err := db.LoadCSV("g", strings.NewReader("v,7,7.5\nw,eight,8.5\nx,9,9.5\n"), false)
			return err
		}},
		{"InstallAPB over an existing time_dt", func() error {
			_, err := db.InstallAPB(APBScale{ProductFanout: []int{2, 2}, Channels: 1, Customers: 1, Years: 1, Density: 1})
			return err
		}},
		{"Insert with a ragged row", func() error {
			return db.Insert("g", []any{"y", 10, 10.5}, []any{"z", 11})
		}},
		{"Insert into a missing table", func() error { return db.Insert("missing", []any{1}) }},
		{"CreateTable over an existing name", func() error { return db.CreateTable("d", ColInt("x")) }},
	}
	for _, c := range cases {
		before := stateOf(db)
		if err := c.run(); err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if d := before.diff(stateOf(db)); d != "" {
			t.Errorf("%s left a trace: %s", c.name, d)
		}
	}

	// A batch that fails at statement 2 keeps statement 1 — applied, logged,
	// published and, although the call returns an error, committed: under
	// fsync=group that is one more fsync, or one more commit covered by
	// somebody else's.
	before := stateOf(db)
	wc, _ := db.WALCounters()
	if _, err := db.Exec(`INSERT INTO g VALUES ('q', 17, 17.5); INSERT INTO missing VALUES (3)`); err == nil {
		t.Fatal("batch with an INSERT into a missing table: no error")
	}
	after := stateOf(db)
	ac, _ := db.WALCounters()
	if after.appends != before.appends+1 {
		t.Errorf("failed batch appended %d records, want 1 (its first statement)", after.appends-before.appends)
	}
	if got := (ac.Fsyncs + ac.CoalescedSyncs) - (wc.Fsyncs + wc.CoalescedSyncs); got != 1 {
		t.Errorf("failed batch committed %d times, want 1: its first statement was applied and must be made durable", got)
	}
	tg, _ := db.cat.Get("g")
	if n := len(tg.Img().Rows); n != 6 {
		t.Errorf("g's published image has %d rows after the failed batch, want 6", n)
	}
	after.appends, after.tables["g"] = before.appends, before.tables["g"]
	if d := before.diff(after); d != "" {
		t.Errorf("failed batch touched more than g and one log record: %s", d)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	if err := db2.EnableWAL(dir, SyncGroup); err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	live, rec := stateOf(db), stateOf(db2)
	if live.names != rec.names {
		t.Fatalf("recovered names %s, live %s", rec.names, live.names)
	}
	for name, lt := range live.tables {
		if rt := rec.tables[name]; lt.rows != rt.rows || lt.version != rt.version || lt.schema != rt.schema {
			t.Errorf("recovered %s = %s %s (version %d), live %s %s (version %d)", name, rt.schema, rt.rows, rt.version, lt.schema, lt.rows, lt.version)
		}
	}
}

// TestWALAppendFailurePoisonsTheDB: a statement is appended after it applies,
// so one whose append fails is in the writer's master rows and not in the
// log. That stays a single, loudly failed statement because it is never
// published and the log takes nothing after it: every later mutation is
// refused before it touches memory, reads keep working and never see the
// failed statement, and the counters say why.
func TestWALAppendFailurePoisonsTheDB(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	db := Open()
	if err := db.EnableWAL(dir, SyncGroup); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`CREATE TABLE t (a INT)`)
	db.MustExec(`INSERT INTO t VALUES (1)`)
	// Close the open segment so the next append must open a new one, and put
	// a regular file where the directory was: it cannot.
	db.wal.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, first := db.Exec(`INSERT INTO t VALUES (2)`)
	if first == nil {
		t.Fatal("INSERT succeeded with its log directory gone")
	}
	tab, _ := db.cat.Get("t")
	master := len(tab.Rows)
	for _, run := range []func() error{
		func() error { _, err := db.Exec(`INSERT INTO t VALUES (3)`); return err },
		func() error { _, err := db.Exec(`DELETE FROM t`); return err },
		func() error { return db.Insert("t", []any{4}) },
		func() error { return db.CreateTable("u", ColInt("a")) },
		db.Checkpoint,
	} {
		if err := run(); err == nil || err.Error() != first.Error() {
			t.Errorf("mutation on a poisoned log = %v, want %v", err, first)
		}
	}
	if len(tab.Rows) != master || len(db.Tables()) != 1 {
		t.Errorf("a refused mutation reached memory: t has %d master rows (had %d), tables %v", len(tab.Rows), master, db.Tables())
	}
	res, err := db.Query(`SELECT a FROM t`)
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("readers see %v (err %v), want the one acknowledged row", res, err)
	}
	if c, _ := db.WALCounters(); c.Failed != first.Error() {
		t.Errorf("WALCounters().Failed = %q, want %q", c.Failed, first)
	}
	// A batch runs its SELECTs up to the write that is refused: its first
	// statement is a read, and reads keep working.
	var got *Result
	stmt := mustParse(t, `SELECT a FROM t`)
	sel := db.stmtMutation(context.Background(), db.sess.Load(), stmt, sqlast.Fingerprint(stmt.(*sqlast.SelectStmt)), &got)
	db.stmtMu.Lock()
	err = db.mutateLocked(sel, nil)
	db.stmtMu.Unlock()
	if err != nil || got == nil || len(got.Rows) != 1 {
		t.Errorf("SELECT inside a write batch on a poisoned log = %v (err %v), want the one row", got, err)
	}
	// Detaching the log does not un-fail the DB: the unlogged row in t's
	// master copy must never be published.
	db.Close()
	if _, err := db.Exec(`INSERT INTO t VALUES (5)`); err == nil || err.Error() != first.Error() {
		t.Errorf("mutation after Close of a poisoned log = %v, want %v", err, first)
	}
	if res, err := db.Query(`SELECT a FROM t`); err != nil || len(res.Rows) != 1 {
		t.Errorf("after Close readers see %v (err %v), want the one acknowledged row", res, err)
	}
}

func mustParse(t *testing.T, sql string) sqlast.Statement {
	t.Helper()
	stmts, err := parser.Parse(sql)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return stmts[0]
}

// TestPinLifecycle: an untyped column is pinned by the first write that
// stores a value in it, and by nothing else; the pin is part of the schema,
// so a checkpoint keeps it, and a log whose rows mix kinds in one column does
// not recover.
func TestPinLifecycle(t *testing.T) {
	kinds := func(db *DB, table string) string {
		tb, _ := db.cat.Get(table)
		return fmt.Sprint(tb.Schema.Cols)
	}
	db := Open()
	if err := db.CreateTable("u", Column{Name: "a"}, Column{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	unpinned := kinds(db, "u")

	t.Run("a failed statement pins nothing", func(t *testing.T) {
		for _, fail := range []func() error{
			func() error { _, err := db.Exec(`INSERT INTO u VALUES (1, 'x'), (2, 3)`); return err },
			func() error { return db.Insert("u", []any{1, nil}, []any{2}) },
			func() error {
				_, err := db.LoadCSV("u", strings.NewReader("1,x\n2,3\n"), false)
				return err
			},
		} {
			if err := fail(); err == nil {
				t.Fatal("no error")
			}
			if got := kinds(db, "u"); got != unpinned {
				t.Fatalf("schema %s after a failed write, was %s", got, unpinned)
			}
		}
		// a is free to take another kind than the failed writes gave it.
		db.MustExec(`INSERT INTO u VALUES ('s', NULL)`)
		if got, want := kinds(db, "u"), "[{a STRING} {b NULL}]"; got != want {
			t.Fatalf("schema %s, want %s", got, want)
		}
	})

	t.Run("INT and FLOAT pin FLOAT", func(t *testing.T) {
		if err := db.CreateTable("f", Column{Name: "v"}); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`INSERT INTO f VALUES (1), (2.5)`)
		res, err := db.Query(`SELECT v FROM f ORDER BY v`)
		if err != nil {
			t.Fatal(err)
		}
		if v := res.Rows[0][0]; v.K != types.KindFloat || v.F != 1 {
			t.Fatalf("1 reads back as %#v, want FLOAT 1", v)
		}
	})

	t.Run("a pin survives a checkpoint of no rows", func(t *testing.T) {
		dir := t.TempDir()
		live := Open()
		if err := live.EnableWAL(dir, SyncGroup); err != nil {
			t.Fatal(err)
		}
		if err := live.CreateTable("p", Column{Name: "n"}); err != nil {
			t.Fatal(err)
		}
		live.MustExec(`INSERT INTO p VALUES (1)`)
		live.MustExec(`DELETE FROM p`)
		if err := live.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		const write = `INSERT INTO p VALUES (2.5)`
		_, liveErr := live.Exec(write)
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		rec := Open()
		if err := rec.EnableWAL(dir, SyncGroup); err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		_, recErr := rec.Exec(write)
		if liveErr == nil || recErr == nil || liveErr.Error() != recErr.Error() {
			t.Fatalf("%s: live %v, recovered %v; want one typed error", write, liveErr, recErr)
		}
		if got := kinds(rec, "p"); got != "[{n INT}]" {
			t.Fatalf("recovered schema %s, want n pinned INT", got)
		}
	})

	t.Run("readers plan while a write pins", func(t *testing.T) {
		for i := 0; i < 20; i++ {
			name := fmt.Sprintf("r%d", i)
			if err := db.CreateTable(name, Column{Name: "v"}); err != nil {
				t.Fatal(err)
			}
			done := make(chan error)
			go func() {
				_, err := db.Query(`SELECT v FROM ` + name)
				done <- err
			}()
			db.MustExec(`INSERT INTO ` + name + ` VALUES (1)`)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("an older log mixing kinds does not recover", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Open(dir, wal.SyncNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows := []types.Row{{types.NewInt(1)}, {types.NewString("x")}}
		for _, rec := range []struct {
			kind byte
			data []byte
		}{{wal.KindCreate, wal.EncodeCreate("old", []types.Column{{Name: "v"}})}, {wal.KindRows, wal.EncodeRows("old", rows)}} {
			if _, err := l.Append(rec.kind, rec.data); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		err = Open().EnableWAL(dir, SyncGroup)
		if err == nil || !strings.Contains(err.Error(), `record 2 (kind 'R')`) || !strings.Contains(err.Error(), "INT and STRING") {
			t.Fatalf("EnableWAL = %v, want an error naming record 2 (kind 'R') and its kinds", err)
		}
	})
}
