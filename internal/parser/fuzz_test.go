package parser

import (
	"errors"
	"testing"
)

// FuzzParse drives the full parser with arbitrary input; any panic is a
// bug (errors are fine). An input that does not tokenize never parses, and
// its lexical error is what Parse returns unless a syntax error comes before
// the bad token. Run with: go test -fuzz FuzzParse ./internal/parser
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
	// A lexical error before the first syntax error wins; one after loses.
	f.Add("SELECT 1 + ? FROM FROM")
	f.Add("SELECT 'oops FROM FROM")
	f.Add("SELECT a FROM t; SELECT ?")
	f.Add("SELECT FROM FROM ?")
	f.Fuzz(func(t *testing.T, sql string) {
		// Must not panic; errors are expected for most inputs.
		stmts, err := Parse(sql)
		if _, lerr := lex(sql); lerr != nil {
			checkLexErrorWins(t, sql, lerr, err)
		}
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

// checkLexErrorWins checks Parse's error err on a text whose tokenizing
// fails with lerr. The parser sees the tokens before the bad one and then
// EOF, exactly the tokens of the text cut at the bad token; so when the cut
// text parses or fails at its end, the parser reached the bad token and err
// must be lerr, and otherwise err is a syntax error before it.
func checkLexErrorWins(t *testing.T, sql string, lerr, err error) {
	var le *Error
	if !errors.As(lerr, &le) {
		t.Fatalf("lexical error %v is not a *Error", lerr)
	}
	if err == nil {
		t.Fatalf("%q parsed, but does not tokenize: %v", sql, lerr)
	}
	cut := sql[:le.Offset]
	_, cutErr := Parse(cut)
	var ce, pe *Error
	if cutErr == nil || errors.As(cutErr, &ce) && ce.Offset >= len(cut) {
		if err.Error() != lerr.Error() {
			t.Fatalf("%q: got %v, want the lexical error %v", sql, err, lerr)
		}
		return
	}
	if errors.As(err, &pe) && err.Error() != lerr.Error() && pe.Offset >= le.Offset {
		t.Fatalf("%q: syntax error %v at or after the lexical error %v", sql, err, lerr)
	}
}
