package sqlsheet_test

import (
	"fmt"
	"testing"

	"sqlsheet"
)

// differentialPair opens two databases holding fix, one under the named
// configuration of the differential harness and one under its reference.
func differentialPair(tb testing.TB, name string, fix fixture) (got, ref *sqlsheet.DB) {
	k := diffConfigNamed(name)
	open := func(cfg sqlsheet.Config) *sqlsheet.DB {
		db := fixtureDB(tb, fix)
		db.Configure(cfg)
		return db
	}
	return open(k.cfg), open(diffConfigNamed(k.ref).cfg)
}

// checkDifferential fails t unless got and ref agree on q: on success, on
// the error text, and on the rows under rowBits.
func checkDifferential(t *testing.T, got, ref *sqlsheet.DB, q string) {
	if g, r := rowBits(got.Query(q)), rowBits(ref.Query(q)); g != r {
		t.Fatalf("divergence from the reference: %s\n%s", firstDiff(r, g), q)
	}
}

// fuzzQueryDB is the small fixed catalog FuzzQuery reads.
func fuzzQueryDB(_ testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	db.MustExec(`CREATE TABLE d (p TEXT, parent TEXT)`)
	db.MustExec(`INSERT INTO f VALUES
		('w','dvd',2000,1),('w','dvd',2001,2),('w','vcr',2000,3),
		('e','dvd',2000,4),('e','tv',2001,5)`)
	db.MustExec(`INSERT INTO d VALUES ('dvd','video'),('vcr','video')`)
}

// FuzzQuery drives the full pipeline — parse, plan, optimize, execute —
// with arbitrary SQL against a small fixed catalog, differentially: under
// the harness's par2-mixed (PEs, workers, the batch cutoff at 1, the cache
// on) and under its reference, which must agree on success, on error text
// and on rows. Errors are expected; panics and hangs are bugs. Query
// refuses mutating statements, so the catalog stays stable.
func FuzzQuery(f *testing.F) {
	seeds := []string{
		`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p,t) MEA(s) ( s['dvd',2002] = s['dvd',2001]*2 )`,
		`SELECT * FROM (SELECT r,p,t,s FROM f SPREADSHEET PBY(r) DBY(p,t) MEA(s) UPDATE ( s[*,2001] = avg(s)[cv(p), t<2001] )) v WHERE p = 'dvd'`,
		`SELECT p, SUM(s) FROM f GROUP BY p HAVING COUNT(*) > 1 ORDER BY 2 DESC`,
		`SELECT f.p, d.parent FROM f LEFT JOIN d ON f.p = d.p WHERE s > (SELECT AVG(s) FROM f)`,
		`SELECT p, rank() OVER (PARTITION BY r ORDER BY s DESC) FROM f`,
		`WITH w AS (SELECT DISTINCT p FROM f) SELECT * FROM w UNION SELECT parent FROM d`,
		`SELECT t, s FROM f SPREADSHEET DBY(t) MEA(s) ITERATE (3) UNTIL (previous(s[2000]) - s[2000] < 1) ( s[2000] = s[2000]/2 )`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	got, ref := differentialPair(f, "par2-mixed", fuzzQueryDB)
	f.Fuzz(func(t *testing.T, sql string) {
		checkDifferential(t, got, ref, sql)
	})
}

// ruleFuzzDB: a working table of two 120-cell partitions and forty of 1–6
// cells (one bucket holds them all, so a batch rule runs over many
// partitions at once), and a reference table mapping each product to
// another (ref, one NULL, one missing) and to a weight (m2).
func ruleFuzzDB(tb testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE rf (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT)`)
	db.MustExec(`CREATE TABLE rd (p TEXT, ref TEXT, m2 FLOAT)`)
	db.MustExec(`INSERT INTO rd VALUES ('tv','vcr',2), ('vcr','dvd',0.5), ('dvd',NULL,1.25), ('laser','tv',NULL)`)
	prods := []string{"tv", "vcr", "dvd", "amp"}
	rows := make([][]any, 0, 2*4*30+40*6)
	for _, r := range []string{"east", "west"} {
		for pi, p := range prods {
			for yr := 1980; yr < 2010; yr++ {
				rows = append(rows, []any{r, p, yr, float64(yr-1979)*1.5 + float64(pi)*7.25, 0.0})
			}
		}
	}
	for k := 0; k < 40; k++ {
		for i := 0; i <= k%6; i++ {
			rows = append(rows, []any{fmt.Sprintf("k%02d", k), prods[(k+i)%4], 2000 + i/2, float64(k) + float64(i)*0.75, 0.0})
		}
	}
	insert(tb, db, "rf", rows...)
}

// FuzzRuleKernel differentially executes a fuzzed spreadsheet rule set under
// the harness's vec-min1 (every rule batched when it can be) and under its
// reference, the per-cell row path. Both must agree on success (rowBits) and
// on failure (error text): the batch path may only ever fall back, never
// change a result.
func FuzzRuleKernel(f *testing.F) {
	seeds := []string{
		`UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5 + s[cv(p), cv(t) - 1]`,
		`UPSERT u[FOR p IN ('tv','vcr'), FOR t FROM 2010 TO 2020] = s[cv(p), cv(t) - 30] * 2`,
		`UPDATE u[*, *] = s[cv(p), cv(t)] / (s[cv(p), cv(t)] - s[cv(p), cv(t)])`,
		`UPDATE u['tv', t > 2000] = min(s)['tv', 1980 <= t <= 1999] + s['tv', 2004]`,
		`UPDATE u[p IN ('tv','dvd'), 1990 <= t <= 2005] = avg(s)[cv(p), 1990 <= t <= 1999]`,
		`UPDATE u[*, *] = z[cv(p), cv(t)]`,
		`UPDATE s['tv', 2005] = s['tv', 1980] * 2`,
		`UPDATE u[*, *] = s[ref[cv(p)], cv(t)]`,
		`UPDATE u[*, *] = m2[cv(p)] * s[cv(p), cv(t)]`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	batch, row := differentialPair(f, "vec-min1", ruleFuzzDB)
	f.Fuzz(func(t *testing.T, rules string) {
		checkDifferential(t, batch, row, `SELECT r, p, t, s, u FROM rf SPREADSHEET
			REFERENCE rs ON (SELECT p, ref, m2 FROM rd) DBY (p) MEA (ref, m2)
			PBY(r) DBY (p, t) MEA (s, u) (`+rules+`) ORDER BY r, p, t`)
	})
}
