// Package parser implements a hand-written lexer and recursive-descent
// parser for the engine's SQL dialect, including the SPREADSHEET clause.
package parser

import (
	"fmt"
	"strings"
)

type tokenKind uint8

const (
	tkEOF tokenKind = iota
	tkIdent
	tkNumber
	tkString
	tkOp    // operators and punctuation
	tkParam // unused placeholder for future bind variables
)

type token struct {
	kind tokenKind
	text string // identifiers lowercased; operators canonical
	pos  int    // byte offset for error messages
	// quoted marks a double-quoted identifier, which never matches a
	// keyword ("select" is a plain name).
	quoted bool
}

// scanner holds the lexer's one set of rules: it finds the next token's kind
// and extent without building its text. lex turns each span into a token;
// fingerprint hashes each span's canonical bytes where they lie.
type scanner struct {
	src string
	pos int
}

// span is one scanned token. Its raw text is src[start:end], quotes and
// escapes included; text renders the canonical form the parser sees.
type span struct {
	kind       tokenKind
	start, end int
	quoted     bool   // a double-quoted identifier
	esc        int    // doubled quotes inside a string literal or quoted identifier
	op         string // canonical operator text (tkOp)
}

// lex tokenizes src fully up front; the parser then walks the slice.
func lex(src string) ([]token, error) {
	s := scanner{src: src}
	var toks []token
	for {
		sp, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, token{kind: sp.kind, text: sp.text(src), pos: sp.start, quoted: sp.quoted})
		if sp.kind == tkEOF {
			return toks, nil
		}
	}
}

// text is the token's canonical text: identifiers lowercased, literals
// unescaped, operators canonical. It copies only what it must change.
func (sp span) text(src string) string {
	switch {
	case sp.kind == tkOp:
		return sp.op
	case sp.kind == tkString:
		return unescape(src[sp.start+1:sp.end-1], sp.esc, "'")
	case sp.quoted:
		return strings.ToLower(unescape(src[sp.start+1:sp.end-1], sp.esc, `"`))
	case sp.kind == tkIdent:
		return strings.ToLower(src[sp.start:sp.end])
	}
	return src[sp.start:sp.end]
}

// unescape folds each doubled quote q of a literal's body into one.
func unescape(body string, esc int, q string) string {
	if esc == 0 {
		return body
	}
	return strings.ReplaceAll(body, q+q, q)
}

// next scans one token; at the end of input it returns a tkEOF span.
func (s *scanner) next() (span, error) {
	s.skipSpaceAndComments()
	start := s.pos
	if start >= len(s.src) {
		return span{kind: tkEOF, start: start, end: start}, nil
	}
	c := s.src[start]
	switch {
	case isIdentStart(c):
		s.pos++
		for s.pos < len(s.src) && isIdentPart(s.src[s.pos]) {
			s.pos++
		}
		return span{kind: tkIdent, start: start, end: s.pos}, nil
	case isDigit(c) || c == '.' && start+1 < len(s.src) && isDigit(s.src[start+1]):
		s.scanNumber()
		return span{kind: tkNumber, start: start, end: s.pos}, nil
	case c == '\'':
		esc, err := s.scanQuoted("unterminated string literal")
		return span{kind: tkString, start: start, end: s.pos, esc: esc}, err
	case c == '"':
		// Quoted identifier; "" escapes an embedded quote.
		esc, err := s.scanQuoted("unterminated quoted identifier")
		return span{kind: tkIdent, start: start, end: s.pos, quoted: true, esc: esc}, err
	}
	op, err := s.scanOp()
	return span{kind: tkOp, start: start, end: s.pos, op: op}, err
}

func (s *scanner) skipSpaceAndComments() {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.pos++
		case c == '-' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '-':
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.pos++
			}
		case c == '/' && s.pos+1 < len(s.src) && s.src[s.pos+1] == '*':
			end := strings.Index(s.src[s.pos+2:], "*/")
			if end < 0 {
				s.pos = len(s.src)
			} else {
				s.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func (s *scanner) scanNumber() {
	start := s.pos
	seenDot, seenExp := false, false
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case isDigit(c):
			s.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			s.pos++
		case (c == 'e' || c == 'E') && !seenExp && s.pos > start:
			next := s.pos + 1
			if next < len(s.src) && (s.src[next] == '+' || s.src[next] == '-') {
				next++
			}
			if next < len(s.src) && isDigit(s.src[next]) {
				seenExp = true
				s.pos = next + 1
			} else {
				return
			}
		default:
			return
		}
	}
}

// scanQuoted scans a literal delimited by the quote at s.pos, inside which a
// doubled quote stands for one, and returns how many doubled quotes it held.
func (s *scanner) scanQuoted(unterminated string) (int, error) {
	start := s.pos
	q := s.src[start]
	esc := 0
	for s.pos++; s.pos < len(s.src); s.pos++ {
		if s.src[s.pos] != q {
			continue
		}
		if s.pos+1 < len(s.src) && s.src[s.pos+1] == q {
			esc++
			s.pos++
			continue
		}
		s.pos++
		return esc, nil
	}
	return 0, posError(s.src, start, s.src[start:start+1], unterminated)
}

// scanOp scans one operator, two-character ones first, and returns its
// canonical text.
func (s *scanner) scanOp() (string, error) {
	start := s.pos
	c, next := s.src[start], byte(0)
	if start+1 < len(s.src) {
		next = s.src[start+1]
	}
	switch {
	case c == '<' && (next == '=' || next == '>'), c == '>' && next == '=', c == '|' && next == '|', c == ':' && next == '=':
		s.pos += 2
		return s.src[start:s.pos], nil
	case c == '!' && next == '=':
		s.pos += 2
		return "<>", nil
	}
	switch c {
	case '&':
		s.pos++
		return "AND", nil // the paper writes & for AND in one listing
	case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', '[', ']', ',', '.', ';', ':':
		s.pos++
		return s.src[start:s.pos], nil
	}
	return "", posError(s.src, start, string(c), fmt.Sprintf("unexpected character %q", string(c)))
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) || c == '$' || c == '#' }
