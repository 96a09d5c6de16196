package sqlsheet

import (
	"strings"
	"testing"
	"time"

	"sqlsheet/internal/plancache"
)

// HoldEntry claims the plan-cache entry a single-SELECT text reads under
// until the test ends, as a concurrent execution of the same statement
// would: every read of sql meanwhile finds the entry busy. It is exported
// for the external tests.
func (db *DB) HoldEntry(t testing.TB, sql string) {
	t.Helper()
	s := db.sess.Load()
	_, keys, err := db.prepare(s, sql)
	if err != nil {
		t.Fatal(err)
	}
	e := db.cache.Entry(plancache.Key{Stmt: keys[0], Cfg: s.fp})
	e.ExecMu.Lock()
	t.Cleanup(e.ExecMu.Unlock)
}

// TestExplainDoesNotWaitForABusyEntry holds the entry of a spreadsheet query
// the way a long execution of it would: Explain and ExplainAnalyze must
// still return at once, planning privately, with the plan an uncontended
// call prints.
func TestExplainDoesNotWaitForABusyEntry(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	db.MustExec(`INSERT INTO f VALUES ('west','dvd',2001,10.5), ('west','vcr',2001,4), ('east','dvd',2001,7)`)
	q := `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s['dvd', 2002] = s['dvd', 2001] * 1.6 ) ORDER BY r, p, t`
	planOf := func(analyzed string) string {
		plan, _, _ := strings.Cut(analyzed, "\nexecution:\n")
		return plan
	}

	want, err := db.Explain(q) // the first call plans: a miss, like a busy one
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	wantA := planOf(analyzed)

	db.HoldEntry(t, q)
	type reply struct {
		explain, analyze string
		err              error
	}
	done := make(chan reply, 1)
	go func() {
		var r reply
		if r.explain, r.err = db.Explain(q); r.err == nil {
			r.analyze, r.err = db.ExplainAnalyze(q)
		}
		done <- r
	}()
	var r reply
	select {
	case r = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Explain/ExplainAnalyze waited for the busy entry")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.explain != want {
		t.Errorf("busy Explain:\n%s\nwant:\n%s", r.explain, want)
	}
	if got := planOf(r.analyze); got != wantA {
		t.Errorf("busy ExplainAnalyze plan:\n%s\nwant:\n%s", got, wantA)
	}
	if !strings.HasSuffix(r.analyze, "cache: plan miss\n") {
		t.Errorf("busy ExplainAnalyze should report a private plan (miss):\n%s", r.analyze)
	}
}
