package parser

import "testing"

// FuzzParse drives the full parser with arbitrary input; any panic is a
// bug (errors are fine). Run with: go test -fuzz FuzzParse ./internal/parser
func FuzzParse(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	f.Add("SELECT 1")
	f.Add("SELECT s[FOR t FROM 1 TO 3] FROM f SPREADSHEET DBY(t) MEA(s) (s[1]=2)")
	f.Add("SELECT rank() OVER (PARTITION BY a ORDER BY b ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) FROM t")
	f.Add("CREATE MATERIALIZED VIEW v AS SELECT * FROM t; REFRESH v FULL; DROP VIEW v")
	f.Add(deepParens(100000))
	f.Add(operatorChain(4000))
	f.Add(operatorChain(100000))
	// Two texts that shared a fingerprint while token texts ended in a 0 byte.
	f.Add("SELECT 'a', 'b' FROM f")
	f.Add("SELECT 'a\x00\x04,\x00\x03b' FROM f")
	f.Fuzz(func(t *testing.T, sql string) {
		// Must not panic; errors are expected for most inputs.
		stmts, err := Parse(sql)
		if err == nil {
			// Parsed statements must render without panicking either.
			for _, s := range stmts {
				if q, ok := s.(interface{ String() string }); ok {
					_ = q.String()
				}
			}
		}
	})
}
