package sqlsheet_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"sqlsheet"
)

// reply runs q and returns its result and wire reply.
func reply(t *testing.T, db *sqlsheet.DB, q string) (*sqlsheet.Result, []byte) {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res, res.Reply()
}

// TestReplyMemo pins the stored reply of a result-cache entry: attached on the
// result's first hit, served as it is on every hit after, equal to what an
// uncached read encodes, dropped with its result, and never made from a
// caller's reordered rows or attached to a result that replaced the one it
// was read from.
func TestReplyMemo(t *testing.T) {
	q := cacheQueries[4] // a spreadsheet with upserts: a multi-kind reply
	fresh := func(t *testing.T, off *sqlsheet.DB) []byte {
		t.Helper()
		_, want := reply(t, off, q)
		return want
	}
	replyHits := func(db *sqlsheet.DB) int64 { return db.CacheCounters().ReplyHits }

	t.Run("stored equals a fresh encode", func(t *testing.T) {
		db := cacheTestDB(t, sqlsheet.Config{})
		want := fresh(t, cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}))
		var last []byte
		for i, wantReplyHits := range []int64{0, 0, 1, 2} { // miss, first hit, stored, stored
			_, got := reply(t, db, q)
			if !bytes.Equal(got, want) {
				t.Fatalf("call %d: reply differs from a cache-off encode:\ngot  %q\nwant %q", i, got, want)
			}
			if n := replyHits(db); n != wantReplyHits {
				t.Errorf("call %d: ReplyHits = %d, want %d", i, n, wantReplyHits)
			}
			if i == 3 && &got[0] != &last[0] {
				t.Error("two stored-reply hits were encoded separately")
			}
			last = got
		}
	})

	t.Run("DML on a dependency drops it", func(t *testing.T) {
		db := cacheTestDB(t, sqlsheet.Config{})
		off := cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
		for i := 0; i < 3; i++ {
			reply(t, db, q)
		}
		before := fresh(t, off)
		for _, d := range []*sqlsheet.DB{db, off} {
			d.MustExec(`UPDATE sales SET s = s * 2 WHERE p = 'dvd' AND t = 2002`)
		}
		want := fresh(t, off)
		if bytes.Equal(before, want) {
			t.Fatal("the UPDATE did not change the reply; the test proves nothing")
		}
		n := replyHits(db)
		for i := 0; i < 3; i++ {
			if _, got := reply(t, db, q); !bytes.Equal(got, want) {
				t.Fatalf("call %d after UPDATE: stale reply\ngot  %q\nwant %q", i, got, want)
			}
		}
		if got := replyHits(db) - n; got != 1 {
			t.Errorf("after UPDATE: %d reply hits in miss, first hit, stored; want 1", got)
		}
	})

	t.Run("a caller's rows do not reach it", func(t *testing.T) {
		db := cacheTestDB(t, sqlsheet.Config{})
		want := fresh(t, cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}))
		mess := func(res *sqlsheet.Result) {
			sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i][3].Float() > res.Rows[j][3].Float() })
			res.Rows = res.Rows[:1]
		}
		res, err := db.Query(q) // the miss stores the result
		if err != nil {
			t.Fatal(err)
		}
		mess(res)
		if res, err = db.Query(q); err != nil { // the first hit attaches the reply
			t.Fatal(err)
		}
		mess(res)
		if got := res.Reply(); !bytes.Equal(got, want) {
			t.Fatalf("first hit encoded the caller's rows:\ngot  %q\nwant %q", got, want)
		}
		if _, got := reply(t, db, q); !bytes.Equal(got, want) || replyHits(db) != 1 {
			t.Fatalf("stored reply (reply hits %d) differs:\ngot  %q\nwant %q", replyHits(db), got, want)
		}
	})

	t.Run("an attach that lost a race with a new result is discarded", func(t *testing.T) {
		db := cacheTestDB(t, sqlsheet.Config{})
		want := fresh(t, cacheTestDB(t, sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}}))
		reply(t, db, q)
		res, err := db.Query(q) // a hit, not yet encoded
		if err != nil {
			t.Fatal(err)
		}
		// ExplainAnalyze always executes and stores its result in place of
		// the one res was read from.
		if _, err := db.ExplainAnalyze(q); err != nil {
			t.Fatal(err)
		}
		if got := res.Reply(); !bytes.Equal(got, want) {
			t.Fatalf("late reply differs:\ngot  %q\nwant %q", got, want)
		}
		reply(t, db, q) // first hit of the new result: it must encode, not find one
		if n := replyHits(db); n != 0 {
			t.Fatalf("a reply attached across a replacement was served (%d reply hits)", n)
		}
		reply(t, db, q)
		if n := replyHits(db); n != 1 {
			t.Fatalf("the new result's reply was not stored (%d reply hits)", n)
		}
	})
}

// TestLiteralCannotStandForTokens: two statement texts must never share a
// parse. A string literal holding the bytes the fingerprint once used to
// separate tokens used to be answered with another statement's columns.
func TestLiteralCannotStandForTokens(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE f (x INT)`)
	db.MustExec(`INSERT INTO f VALUES (1)`)
	if res, err := db.Query(`SELECT 'a', 'b' FROM f`); err != nil || len(res.Columns) != 2 {
		t.Fatalf("two literals: %v, %v", res, err)
	}
	res, err := db.Query("SELECT 'a\x00\x04,\x00\x03b' FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].String() != "a\x00\x04,\x00\x03b" {
		t.Fatalf("one literal answered as %q with rows %v, want one column", strings.Join(res.Columns, ","), res.Rows)
	}
}
