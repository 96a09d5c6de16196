package parser

import (
	"reflect"
	"slices"
	"testing"

	"sqlsheet/internal/sqlast"
)

// roundtripCorpus exercises every statement kind through parse → format →
// parse → format; the two rendered forms must be identical (formatting is
// canonical and parse-stable).
var roundtripCorpus = []string{
	`SELECT 1`,
	`SELECT DISTINCT a, b + 1 AS c FROM t WHERE a IN (1, 2) AND b IS NOT NULL`,
	`SELECT a FROM t ORDER BY a DESC LIMIT 3`,
	`SELECT a FROM t1 JOIN t2 ON t1.x = t2.y LEFT JOIN t3 ON t3.z = t1.x`,
	`SELECT a FROM (SELECT a FROM t) AS v, u WHERE v.a = u.b`,
	`WITH w AS (SELECT a FROM t) SELECT a FROM w UNION ALL SELECT b FROM u`,
	`SELECT COUNT(*), SUM(x) FROM t GROUP BY g HAVING COUNT(*) > 2`,
	`SELECT CASE WHEN x = 1 THEN 'a' ELSE 'b' END FROM t`,
	`SELECT (SELECT MAX(x) FROM u) FROM t WHERE EXISTS (SELECT 1 FROM u) AND a NOT IN (SELECT b FROM u)`,
	`SELECT rank() OVER (PARTITION BY g ORDER BY x DESC) FROM t`,
	`SELECT sum(x) OVER (ORDER BY t ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM t`,
	`CREATE TABLE t (a INT, b FLOAT, c TEXT, d BOOL)`,
	`INSERT INTO t (a, b) VALUES (1, 2.5), (NULL, 'x')`,
	`INSERT INTO t SELECT a, b FROM u`,
	`CREATE VIEW v AS SELECT a FROM t`,
	`CREATE MATERIALIZED VIEW mv AS SELECT a FROM t WHERE a > 0`,
	`CREATE FORCE VIEW v AS SELECT a FROM t`,
	`CREATE FORCE MATERIALIZED VIEW mv AS SELECT a FROM t`,
	`REFRESH mv FULL`,
	`DROP TABLE t`,
	`DELETE FROM t WHERE a = 1 AND b LIKE 'x%'`,
	`UPDATE t SET a = a + 1, b = 'z' WHERE a IN (1, 2)`,
	`SELECT r, p, t, s FROM f
	   SPREADSHEET PBY (r) DBY (p, t) MEA (s) UPDATE
	   ( f1: s['dvd', 2002] = s['dvd', 2001] * 1.6,
	     upsert s['video', 2002] = avg(s)[cv(p), 1992 <= t < 2002] )`,
	`SELECT p, m, s FROM f
	   SPREADSHEET REFERENCE prior ON (SELECT m, y FROM d) DBY (m) MEA (y)
	   PBY (p) DBY (m) MEA (sum(s) AS s) IGNORE NAV ITERATE (5) UNTIL ((previous(s[1]) - s[1]) <= 1)
	   ( s[FOR m IN (SELECT m FROM d)] ORDER BY m DESC = y[cv(m)] )`,
	`SELECT t, s FROM f SPREADSHEET RETURN UPDATED ROWS DBY (t) MEA (s)
	   ( UPSERT s[FOR t FROM 1 TO 9 INCREMENT 2] = s[t = 1] )`,
	// Predicate qualifiers on both sides, and a parenthesised comparison,
	// which is a point: canonical text must keep each kind.
	`SELECT d, s FROM f SPREADSHEET DBY (d) MEA (s) ( s[d <= cv(d)] = sum(s)[d <= cv(d)] )`,
	`SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) ( s[1 < t] = avg(s)[1 < t] )`,
	`SELECT p, t, s FROM f SPREADSHEET DBY (p, t) MEA (s)
	   ( s[p IN ('a','b'), t BETWEEN 1 AND 3] = sum(s)[p LIKE 'a%', t BETWEEN 1 AND 3] + max(s)[p IS NULL, *] )`,
	`SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = s[(t < 5)] )`,
}

func TestFormatRoundTrip(t *testing.T) {
	for _, src := range roundtripCorpus {
		stmts, err := Parse(src)
		if err != nil {
			t.Errorf("parse %q: %v", src, err)
			continue
		}
		for _, stmt := range stmts {
			once := sqlast.FormatStatement(stmt)
			again, err := Parse(once)
			if err != nil {
				t.Errorf("reparse of %q failed: %v", once, err)
				continue
			}
			if len(again) != 1 {
				t.Errorf("reparse of %q gave %d statements", once, len(again))
				continue
			}
			twice := sqlast.FormatStatement(again[0])
			if once != twice {
				t.Errorf("format not stable:\n 1: %s\n 2: %s", once, twice)
			}
		}
	}
}

// qualKinds lists the kind of every dimension qualifier in stmt — those of
// each CellRef and CellAgg, nested ones and ones inside subqueries included —
// in the order of the AST's fields.
func qualKinds(stmt sqlast.Statement) []sqlast.QualKind {
	var kinds []sqlast.QualKind
	qualType := reflect.TypeOf(sqlast.DimQual{})
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			if v.Type() == qualType {
				kinds = append(kinds, sqlast.QualKind(v.FieldByName("Kind").Uint()))
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(stmt))
	return kinds
}

// FuzzRoundTrip extends the property to arbitrary inputs that happen to
// parse, and checks structure as well as text: the re-parse must give every
// cell reference the qualifier kinds the first parse gave it (a text can be
// stable and still wrong: "[(d <= cv(d))]" re-parses to itself, as a point).
func FuzzRoundTrip(f *testing.F) {
	for _, s := range roundtripCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			once := sqlast.FormatStatement(stmt)
			again, err := Parse(once)
			if err != nil || len(again) != 1 {
				t.Fatalf("canonical form unparseable: %q (%v)", once, err)
			}
			twice := sqlast.FormatStatement(again[0])
			if once != twice {
				t.Fatalf("format unstable:\n 1: %s\n 2: %s", once, twice)
			}
			if k1, k2 := qualKinds(stmt), qualKinds(again[0]); !slices.Equal(k1, k2) {
				t.Fatalf("qualifier kinds changed: %v → %v\n src: %s\n canonical: %s", k1, k2, src, once)
			}
		}
	})
}
