package parser

// Statement-text fingerprinting for the serving-path cache. The fingerprint
// is computed over the lexer's token stream, so two texts that differ only
// in whitespace, comments or keyword/identifier letter case hash the same,
// while texts with different token content (or token kinds: the string 'a'
// versus the identifier a) hash differently.
//
// Each token is folded in as a prefix code — one header byte (kind, quoted
// flag), the canonical text's length as a uvarint, then the text — so no
// literal's bytes can pass for a token boundary: 'a', 'b' and one literal
// spelling the same bytes hash apart. The hash is computed while scanning,
// from the canonical bytes where they lie in the input: no token slice, and
// on ASCII input no lowercased or unescaped copy. FNV-64 is not
// collision-resistant; see DESIGN.md §10.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64Byte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// fnv64Len folds a token text's length into h as a uvarint.
func fnv64Len(h uint64, n int) uint64 {
	u := uint64(n)
	for u >= 0x80 {
		h = fnv64Byte(h, byte(u)|0x80)
		u >>= 7
	}
	return fnv64Byte(h, byte(u))
}

// fnv64Text folds one length-delimited token text into h.
func fnv64Text(h uint64, s string) uint64 {
	return fnv64Canon(h, s, 0, 0, false)
}

// fnv64Canon folds raw into h as the length-delimited text lex makes of it:
// each of the esc doubled quotes q counted and hashed once and, when lower,
// A–Z lowercased. On ASCII input that is strings.ToLower's result.
func fnv64Canon(h uint64, raw string, q byte, esc int, lower bool) uint64 {
	h = fnv64Len(h, len(raw)-esc)
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if lower && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = fnv64Byte(h, c)
		if esc > 0 && c == q {
			i++ // inside the literal its quote comes doubled
		}
	}
	return h
}

// tokenHead is the header byte of a token in the fingerprint.
func tokenHead(kind tokenKind, quoted bool) byte {
	if quoted {
		// "select" (a quoted name) must not collide with the keyword.
		return byte(kind) | 0x80
	}
	return byte(kind)
}

// Fingerprint returns a stable 64-bit hash of sql's canonical token stream:
// whitespace- and case-insensitive, comment-blind, trailing-semicolon-blind.
// Lexically invalid input returns the lexer's error.
func Fingerprint(sql string) (uint64, error) {
	return fingerprint(sql, false)
}

// FingerprintShape is Fingerprint with literals parameterized out: every
// number and string literal hashes as a placeholder, so queries differing
// only in constants share a shape. Useful for workload grouping; the plan
// cache itself keys on the exact-literal Fingerprint because plans embed
// constant values.
func FingerprintShape(sql string) (uint64, error) {
	return fingerprint(sql, true)
}

func fingerprint(sql string, shape bool) (uint64, error) {
	s := scanner{src: sql}
	h := uint64(fnvOffset64)
	semis := 0 // semicolons scanned but not hashed: trailing ones never are
	for {
		sp, err := s.next()
		if err != nil {
			return 0, err
		}
		switch {
		case sp.kind == tkEOF:
			return h, nil
		case sp.kind == tkOp && sql[sp.start] == ';':
			semis++
			continue
		}
		for ; semis > 0; semis-- {
			h = fnv64Text(fnv64Byte(h, tokenHead(tkOp, false)), ";")
		}
		h = sp.hash(h, sql, shape)
	}
}

// hash folds the span's token into h: its header and its canonical text,
// the one lex would build.
func (sp span) hash(h uint64, src string, shape bool) uint64 {
	h = fnv64Byte(h, tokenHead(sp.kind, sp.quoted))
	switch {
	case shape && (sp.kind == tkNumber || sp.kind == tkString):
		return fnv64Text(h, "?")
	case sp.kind == tkOp:
		return fnv64Text(h, sp.op)
	case sp.kind == tkString:
		return fnv64Canon(h, src[sp.start+1:sp.end-1], '\'', sp.esc, false)
	case sp.quoted:
		body := src[sp.start+1 : sp.end-1]
		if !isASCII(body) {
			return fnv64Text(h, sp.text(src)) // Unicode lowercasing may change the length
		}
		return fnv64Canon(h, body, '"', sp.esc, true)
	}
	return fnv64Canon(h, src[sp.start:sp.end], 0, 0, sp.kind == tkIdent)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
