package parser

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// corpus holds representative statements whose mutations must never panic
// the parser.
var corpus = []string{
	`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s)
	 ( s['dvd',2002] = avg(s)['dvd', 1992<t<2002] * 1.6 )`,
	`SELECT * FROM (SELECT a, b FROM t WHERE a IN (SELECT x FROM u)) v
	 WHERE b BETWEEN 1 AND 2 ORDER BY 1 DESC LIMIT 3`,
	`WITH w AS (SELECT 1 a) SELECT a FROM w UNION ALL SELECT 2`,
	`INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, CASE WHEN 1=1 THEN 'z' END)`,
	`CREATE TABLE t (a INT, b VARCHAR(10), c NUMBER)`,
	`SELECT p, m FROM f MODEL REFERENCE r ON (SELECT m, y FROM d) DBY(m) MEA(y)
	 DIMENSION BY (m) MEASURES (s) ITERATE (5) UNTIL (previous(s[1]) - s[1] <= 0)
	 ( UPSERT s[FOR m FROM 1 TO 10 INCREMENT 3] = y[cv(m)] )`,
}

// TestParserNeverPanics truncates and mutates the corpus aggressively; the
// parser must return (possibly an error) without panicking.
func TestParserNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("parser panicked: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(7))
	mutants := 0
	for _, src := range corpus {
		// Every prefix.
		for i := 0; i <= len(src); i++ {
			_, _ = Parse(src[:i])
			mutants++
		}
		// Random byte substitutions.
		for k := 0; k < 300; k++ {
			b := []byte(src)
			for j := 0; j < 1+rng.Intn(3); j++ {
				b[rng.Intn(len(b))] = byte(rng.Intn(128))
			}
			_, _ = Parse(string(b))
			mutants++
		}
		// Random token deletions (split on spaces).
		for k := 0; k < 100; k++ {
			b := []byte(src)
			cut := rng.Intn(len(b) - 1)
			_, _ = Parse(string(b[:cut]) + string(b[cut+1:]))
			mutants++
		}
	}
	if mutants < 1000 {
		t.Fatalf("only %d mutants exercised", mutants)
	}
}

// deepParens is SELECT ((((…1…)))) with depth pairs of parentheses: the
// input whose lookahead used to rescan to EOF at every level (45 s at
// depth 100k).
func deepParens(depth int) string {
	return "SELECT " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
}

// operatorChain is SELECT a+1+1+…+1 FROM t with the given number of terms:
// parsed by a loop, but a tree as deep as it is long for every later pass.
func operatorChain(terms int) string {
	return "SELECT a" + strings.Repeat("+1", terms) + " FROM t"
}

// TestDeepNestingNoOverflow guards the recursive-descent parser against
// pathological nesting: 2000 levels parse, and past maxNestingDepth every
// self-recursive production — parentheses, NOT and sign chains, derived
// tables, join trees — and every loop that builds a left-deep tree — binary
// operator, UNION and JOIN chains — fails fast with ErrTooDeep instead of
// handing later passes an arbitrarily deep tree.
func TestDeepNestingNoOverflow(t *testing.T) {
	if _, err := Parse(deepParens(2000)); err != nil {
		t.Fatalf("depth 2000: %v", err)
	}
	if _, err := Parse(operatorChain(4000)); err != nil {
		t.Fatalf("4000-term chain: %v", err)
	}
	// A chain gives its levels back when it ends: many shallow chains in a
	// row are not deep.
	if _, err := Parse("SELECT " + strings.Repeat("1+1+1, ", 3*maxNestingDepth) + "1"); err != nil {
		t.Fatalf("many short chains: %v", err)
	}
	// Rejected in under 100 ms — or, where even tokenizing the input takes
	// a good part of that (the race detector, a loaded host), in a small
	// multiple of the tokenizing time: linear either way, not 45 s.
	sql := deepParens(100000)
	start := time.Now()
	if _, err := lex(sql); err != nil {
		t.Fatal(err)
	}
	lexTime := time.Since(start)
	start = time.Now()
	_, err := Parse(sql)
	if took := time.Since(start); took > 100*time.Millisecond && took > 3*lexTime {
		t.Errorf("depth 100k: rejected in %v (tokenizing alone %v), want < 100ms", took, lexTime)
	}
	var pe *Error
	if !errors.Is(err, ErrTooDeep) || !errors.As(err, &pe) {
		t.Errorf("depth 100k: got %v, want a *Error wrapping ErrTooDeep", err)
	}
	const depth = 3 * maxNestingDepth
	for name, sql := range map[string]string{
		"not":     "SELECT " + strings.Repeat("NOT ", depth) + "a FROM t",
		"sign":    "SELECT " + strings.Repeat("- ", depth) + "a FROM t", // "--" would open a comment
		"derived": "SELECT * FROM " + strings.Repeat("(SELECT * FROM ", depth) + "t" + strings.Repeat(")", depth),
		"joins":   "SELECT * FROM " + strings.Repeat("(", depth) + "t" + strings.Repeat(")", depth),
		"plus":    operatorChain(depth),
		"times":   "SELECT a" + strings.Repeat("*2", depth) + " FROM t",
		"and":     "SELECT a FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", depth),
		"or":      "SELECT a FROM t WHERE a = 1" + strings.Repeat(" OR a = 1", depth),
		"union":   "SELECT 1" + strings.Repeat(" UNION ALL SELECT 1", depth),
		"join":    "SELECT 1 FROM t" + strings.Repeat(" CROSS JOIN t", depth),
	} {
		if _, err := Parse(sql); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s at depth %d: got %v, want ErrTooDeep", name, depth, err)
		}
	}
}
