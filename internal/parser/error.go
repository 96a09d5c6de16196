package parser

import (
	"errors"
	"fmt"
)

// Error is a structured parse or lex error. Line and Col are 1-based and
// computed from the byte Offset into the original statement text; Token is
// the offending token's text ("" at end of input). Callers that transport
// errors — the serving layer in particular — can extract the position and
// token with errors.As instead of re-parsing the rendered message.
type Error struct {
	Line   int
	Col    int
	Offset int
	Token  string
	Msg    string
	// Cause, when non-nil, is a sentinel the error wraps (ErrTooDeep).
	Cause error
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (e *Error) Unwrap() error { return e.Cause }

// maxNestingDepth bounds how deeply one statement may nest parentheses,
// subqueries, join trees, NOT / sign chains and chains of binary operators —
// everything the parser, or any later pass over the tree, handles by
// recursion. A wire frame is up
// to 64 MiB, so without a bound a single request can ask for millions of
// stack frames.
const maxNestingDepth = 4096

// ErrTooDeep is wrapped by the *Error a statement nested deeper than
// maxNestingDepth fails with.
var ErrTooDeep = errors.New("statement nests too deeply")

// posError builds an *Error for the given byte offset into src.
func posError(src string, offset int, token string, msg string) *Error {
	line, col := 1, 1
	for i := 0; i < offset && i < len(src); i++ {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &Error{Line: line, Col: col, Offset: offset, Token: token, Msg: msg}
}
