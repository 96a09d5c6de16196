package sqlsheet_test

import (
	"fmt"
	"sync"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/core"
)

var (
	fuzzDBOnce sync.Once
	fuzzDB     *sqlsheet.DB
)

func getFuzzDB() *sqlsheet.DB {
	fuzzDBOnce.Do(func() {
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
		db.MustExec(`CREATE TABLE d (p TEXT, parent TEXT)`)
		db.MustExec(`INSERT INTO f VALUES
			('w','dvd',2000,1),('w','dvd',2001,2),('w','vcr',2000,3),
			('e','dvd',2000,4),('e','tv',2001,5)`)
		db.MustExec(`INSERT INTO d VALUES ('dvd','video'),('vcr','video')`)
		fuzzDB = db
	})
	return fuzzDB
}

// FuzzQuery drives the full pipeline — parse, plan, optimize, execute —
// with arbitrary SQL against a small fixed catalog. Errors are expected;
// panics and hangs are bugs. Mutating statements are rejected up front so
// the shared catalog stays stable.
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
	f.Fuzz(func(t *testing.T, sql string) {
		db := getFuzzDB()
		// Queries only: Exec would mutate the shared catalog.
		res, err := db.Query(sql)
		if err != nil {
			return
		}
		_ = res.String()
	})
}

var (
	ruleFuzzOnce  sync.Once
	ruleFuzzBatch *sqlsheet.DB
	ruleFuzzRow   *sqlsheet.DB
)

// getRuleFuzzDBs returns two identically-populated databases, one pinned to
// the batch rule engine (cutoff 1) and one pinned to the per-cell
// interpreter, so a fuzzed rule set can be differentially executed. The
// working table has two 120-cell partitions and forty of 1–6 cells (one
// bucket holds them all, so a batch rule runs over many partitions at once);
// the reference table maps each product to another (ref, one NULL, one
// missing) and to a weight (m2).
func getRuleFuzzDBs() (*sqlsheet.DB, *sqlsheet.DB) {
	ruleFuzzOnce.Do(func() {
		mk := func(cfg sqlsheet.Config) *sqlsheet.DB {
			db := sqlsheet.Open()
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
			if err := db.Insert("rf", rows...); err != nil {
				panic(err)
			}
			db.Configure(cfg)
			return db
		}
		ruleFuzzBatch = mk(sqlsheet.Config{Workers: 1, Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{VecMinRows: 1}}})
		ruleFuzzRow = mk(sqlsheet.Config{Workers: 1, Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedRules: true}}})
	})
	return ruleFuzzBatch, ruleFuzzRow
}

// FuzzRuleKernel differentially executes a fuzzed spreadsheet rule set on
// the batch rule engine and the per-cell interpreter. Both must agree on
// success (byte-identical rows) and on failure (identical error text) —
// the batch path may only ever fall back, never change a result.
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
	f.Fuzz(func(t *testing.T, rules string) {
		q := `SELECT r, p, t, s, u FROM rf SPREADSHEET
			REFERENCE rs ON (SELECT p, ref, m2 FROM rd) DBY (p) MEA (ref, m2)
			PBY(r) DBY (p, t) MEA (s, u) (` + rules + `) ORDER BY r, p, t`
		batch, row := getRuleFuzzDBs()
		resB, errB := batch.Query(q)
		resR, errR := row.Query(q)
		if (errB == nil) != (errR == nil) {
			t.Fatalf("error divergence:\n  batch: %v\n  row:   %v\n%s", errB, errR, q)
		}
		if errB != nil {
			if errB.Error() != errR.Error() {
				t.Fatalf("error text divergence:\n  batch: %v\n  row:   %v\n%s", errB, errR, q)
			}
			return
		}
		rb, rr := exactRows(resB), exactRows(resR)
		if len(rb) != len(rr) {
			t.Fatalf("row count divergence: batch=%d row=%d\n%s", len(rb), len(rr), q)
		}
		for i := range rb {
			if rb[i] != rr[i] {
				t.Fatalf("row %d divergence:\n  batch: %v\n  row:   %v\n%s", i, rb[i], rr[i], q)
			}
		}
	})
}
