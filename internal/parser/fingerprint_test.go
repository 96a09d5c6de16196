package parser

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

func fp(t *testing.T, sql string) uint64 {
	t.Helper()
	h, err := Fingerprint(sql)
	if err != nil {
		t.Fatalf("Fingerprint(%q): %v", sql, err)
	}
	return h
}

func fpShape(t *testing.T, sql string) uint64 {
	t.Helper()
	h, err := FingerprintShape(sql)
	if err != nil {
		t.Fatalf("FingerprintShape(%q): %v", sql, err)
	}
	return h
}

func TestFingerprintInsensitivity(t *testing.T) {
	base := fp(t, `SELECT r, p, SUM(s) FROM f WHERE t > 1999 GROUP BY r, p`)
	same := []string{
		"select r,p,sum(s) from f where t>1999 group by r,p",
		"SeLeCt R, P, Sum(S)\n\tFROM F\n\tWHERE T > 1999\n\tGROUP BY R, P",
		"SELECT r, p, SUM(s) FROM f WHERE t > 1999 GROUP BY r, p;",
		"SELECT r, p, SUM(s) FROM f WHERE t > 1999 GROUP BY r, p ; ;",
		"SELECT r, p, SUM(s) -- projection\nFROM f WHERE t > 1999 GROUP BY r, p",
	}
	for _, s := range same {
		if got := fp(t, s); got != base {
			t.Errorf("fingerprint of %q = %#x, want %#x (same as canonical)", s, got, base)
		}
	}
	diff := []string{
		"SELECT r, p, SUM(s) FROM f WHERE t > 2000 GROUP BY r, p",  // literal
		"SELECT r, p, SUM(s) FROM f WHERE t >= 1999 GROUP BY r, p", // operator
		"SELECT r, p, MAX(s) FROM f WHERE t > 1999 GROUP BY r, p",  // identifier
		"SELECT r, p, SUM(s) FROM f GROUP BY r, p",                 // shape
	}
	for _, s := range diff {
		if got := fp(t, s); got == base {
			t.Errorf("fingerprint of %q collided with the canonical query", s)
		}
	}
}

// Token-kind and separator discipline: a string literal must not collide with
// an identifier of the same spelling, a quoted identifier must not collide
// with the keyword it spells, and adjacent tokens must not re-associate.
func TestFingerprintTokenKinds(t *testing.T) {
	pairs := [][2]string{
		{`SELECT 'a' FROM f`, `SELECT a FROM f`},
		{`SELECT "select" FROM f`, `SELECT select FROM f`},
		{`SELECT ab FROM f`, `SELECT a b FROM f`},
		{`SELECT 1, 2 FROM f`, `SELECT 12 FROM f`},
	}
	for _, p := range pairs {
		a, errA := Fingerprint(p[0])
		b, errB := Fingerprint(p[1])
		if errA != nil || errB != nil {
			// Some variants may not parse, but they must still lex; both do.
			t.Fatalf("lex error: %v / %v", errA, errB)
		}
		if a == b {
			t.Errorf("fingerprints of %q and %q collided (%#x)", p[0], p[1], a)
		}
	}
}

func TestFingerprintShape(t *testing.T) {
	a := fpShape(t, `SELECT r FROM f WHERE t > 1999 AND p = 'dvd'`)
	b := fpShape(t, `SELECT r FROM f WHERE t > 2005 AND p = 'vcr'`)
	if a != b {
		t.Errorf("shape fingerprints differ across literal-only change: %#x vs %#x", a, b)
	}
	c := fpShape(t, `SELECT r FROM f WHERE t > 1999 AND q = 'dvd'`)
	if a == c {
		t.Error("shape fingerprint collided across an identifier change")
	}
	// Exact fingerprints of the literal-varied pair must differ.
	if fp(t, `SELECT r FROM f WHERE t > 1999 AND p = 'dvd'`) ==
		fp(t, `SELECT r FROM f WHERE t > 2005 AND p = 'vcr'`) {
		t.Error("exact fingerprint collapsed literals; only FingerprintShape should")
	}
}

func TestFingerprintLexError(t *testing.T) {
	if _, err := Fingerprint(`SELECT 'unterminated`); err == nil {
		t.Error("expected lex error for unterminated string")
	}
}

// Token texts are length-delimited: a string literal whose bytes spell the
// old separator and kind bytes of a different token sequence must not hash
// like that sequence (it did when each text ended in a 0 byte).
func TestFingerprintNoReassociation(t *testing.T) {
	two, one := "SELECT 'a', 'b' FROM f", "SELECT 'a\x00\x04,\x00\x03b' FROM f"
	if fp(t, two) == fp(t, one) {
		t.Errorf("fingerprints of %q and %q collided", two, one)
	}
	if fpShape(t, two) == fpShape(t, one) {
		t.Errorf("shape fingerprints of %q and %q collided", two, one)
	}
}

// dashStatement is the size and shape of a dashboard statement: a reference
// spreadsheet, three share rules and an IN list, all ASCII.
const dashStatement = `SELECT c, h, t, p, s, share_1, share_2, share_3 FROM (SELECT c, h, t, p, s, share_1, share_2, share_3 FROM apb_cube
  SPREADSHEET REFERENCE pref ON (SELECT p, parent1, parent2, parent3 FROM product_dt) DBY (p) MEA (parent1, parent2, parent3)
  PBY (c, h, t) DBY (p) MEA (s, 0 share_1, 0 share_2, 0 share_3)
  RULES UPDATE (F1: share_1[*] = s[cv(p)] / s[parent1[cv(p)]], F2: share_2[*] = s[cv(p)] / s[parent2[cv(p)]], F3: share_3[*] = s[cv(p)] / s[parent3[cv(p)]])) v
WHERE p IN ('P0012', 'P0031', 'P0047', 'P0052', 'It''s', 'P0077', 'P0081', 'P0093') AND c = 'C007' AND h = "Chan1" ORDER BY c, h, t, p;`

// TestFingerprintAllocs pins the streaming fingerprint: no token slice, no
// lowercased or unescaped copies — nothing allocated for an ASCII statement.
func TestFingerprintAllocs(t *testing.T) {
	if _, err := Fingerprint(dashStatement); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []bool{false, true} {
		if avg := testing.AllocsPerRun(100, func() { fingerprint(dashStatement, shape) }); avg != 0 {
			t.Errorf("fingerprint (shape=%v) of a dashboard statement allocates %.1f times; want 0", shape, avg)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	b.SetBytes(int64(len(dashStatement)))
	for i := 0; i < b.N; i++ {
		Fingerprint(dashStatement)
	}
}

// referenceFingerprint is the fingerprint's definition, computed from lex()'s
// tokens: trailing semicolons dropped, then per token its header byte, its
// text's length as a uvarint and the text.
func referenceFingerprint(sql string, shape bool) (uint64, error) {
	toks, err := lex(sql)
	if err != nil {
		return 0, err
	}
	end := len(toks) - 1 // drop tkEOF
	for end > 0 && toks[end-1].kind == tkOp && toks[end-1].text == ";" {
		end--
	}
	var enc []byte
	for _, t := range toks[:end] {
		text := t.text
		if shape && (t.kind == tkNumber || t.kind == tkString) {
			text = "?"
		}
		head := byte(t.kind)
		if t.quoted {
			head |= 0x80
		}
		enc = append(enc, head)
		enc = binary.AppendUvarint(enc, uint64(len(text)))
		enc = append(enc, text...)
	}
	h := fnv.New64a()
	h.Write(enc)
	return h.Sum64(), nil
}

// FuzzFingerprint checks the streaming fingerprint against its definition on
// arbitrary input: same hash, or the same lexer error.
func FuzzFingerprint(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	f.Add(dashStatement)
	f.Add("SELECT 'a', 'b' FROM f")
	f.Add("SELECT 'a\x00\x04,\x00\x03b' FROM f")
	f.Add(`SELECT "Ünïcode""Q", 'x''y"z' FROM "a""b" WHERE x != 1 & y <> 2;; ;`)
	f.Add("SELECT \"\xff\xfe\" FROM f")
	f.Add("SELECT 'unterminated")
	f.Fuzz(func(t *testing.T, sql string) {
		for _, shape := range []bool{false, true} {
			got, err := fingerprint(sql, shape)
			want, wantErr := referenceFingerprint(sql, shape)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("shape=%v: error %v, lex error %v", shape, err, wantErr)
			}
			if got != want {
				t.Fatalf("shape=%v: streaming fingerprint %#x, from lex() tokens %#x", shape, got, want)
			}
		}
	})
}
