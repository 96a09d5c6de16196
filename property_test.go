package sqlsheet_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sqlsheet"
)

// TestSpreadsheetOracle compares point-formula evaluation against a naive
// in-test interpretation of the same formulas over the same random data.
func TestSpreadsheetOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// One partition, one dimension: values s[0..9].
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE t1 (x INT, s FLOAT)`)
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
			db.MustExec(fmt.Sprintf(`INSERT INTO t1 VALUES (%d, %g)`, i, vals[i]))
		}
		// Random chain of point formulas evaluated in automatic order.
		// s[a] = s[b] + s[c]; dependencies resolved by the engine.
		a, b, c := rng.Intn(5), 5+rng.Intn(5), 5+rng.Intn(5)
		d := rng.Intn(5)
		if d == a {
			d = (a + 1) % 5 // s[d] = s[a] + s[a] must not self-reference
		}
		q := fmt.Sprintf(`SELECT x, s FROM t1
			SPREADSHEET DBY (x) MEA (s) UPDATE
			( s[%d] = s[%d] + s[%d],
			  s[%d] = s[%d] * 2 )`, d, a, a, a, b)
		// Naive oracle: automatic order evaluates s[a]=s[b]*2 first
		// (the first formula depends on it), then s[d]=s[a]+s[a].
		want := make([]float64, 10)
		copy(want, vals)
		want[a] = want[b] * 2
		want[d] = want[a] + want[a]
		_ = c
		res, err := db.Query(q)
		if err != nil {
			t.Log(err)
			return false
		}
		got := make([]float64, 10)
		for _, r := range res.Rows {
			got[r[0].Int()] = r[1].Float()
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: s[%d] = %g, want %g (a=%d b=%d d=%d)", seed, i, got[i], want[i], a, b, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSequentialVsAutomaticAgreeWhenOrdered: when formulas are listed in
// dependency order, SEQUENTIAL ORDER and AUTOMATIC ORDER agree.
func TestSequentialVsAutomaticAgreeWhenOrdered(t *testing.T) {
	f := func(seed int64) bool {
		db := fixtureDB(t, randomFactDB(seed))
		rules := `( s['dvd', 2001] = s['dvd', 2000] + 1,
			    s['dvd', 2002] = s['dvd', 2001] * 2,
			    s['dvd', 2003] = s['dvd', 2002] - 3 )`
		qa := `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) ` + rules
		qs := `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) SEQUENTIAL ORDER ` + rules
		ra, err := db.Query(qa)
		if err != nil {
			t.Log(err)
			return false
		}
		rs, err := db.Query(qs)
		if err != nil {
			t.Log(err)
			return false
		}
		return rowBits(ra, nil) == rowBits(rs, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
