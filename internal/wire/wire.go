// Package wire implements the serving layer's framed text protocol: every
// message is one frame — a 4-byte big-endian payload length followed by the
// payload — and payloads are line-oriented text. Requests carry a query (or
// PING/QUIT); responses carry a typed result set or a structured error with
// a machine-readable code and, for parse errors, the line/column/token of
// the offending input. Values are encoded with a one-byte kind tag so every
// scalar round-trips exactly (floats via strconv's shortest exact form,
// strings via %q).
//
// The codec is shared by internal/server and internal/client so the two
// sides cannot drift.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"sqlsheet/internal/types"
)

// MaxFrame bounds a single frame's payload. Large result sets fit comfortably
// (a frame holds an entire response); anything bigger is a protocol error
// rather than an unbounded allocation driven by four attacker-chosen bytes.
const MaxFrame = 64 << 20

// Error codes carried in ERR responses.
const (
	CodeParseError    = "PARSE_ERROR"    // statement failed to parse; POS line present
	CodeExecError     = "EXEC_ERROR"     // planning or execution failed
	CodeServerBusy    = "SERVER_BUSY"    // admission queue full or wait deadline hit
	CodeTimeout       = "TIMEOUT"        // per-query timeout elapsed mid-execution
	CodeCanceled      = "CANCELED"       // query canceled (shutdown drain, connection close)
	CodeProtocolError = "PROTOCOL_ERROR" // malformed frame or unknown command
	CodeShutdown      = "SHUTDOWN"       // server is draining and rejects new work
)

// WriteFrame writes one length-prefixed frame in one call: on a TCP or Unix
// connection one vectored write (writev) of header and payload, on any other
// writer one Write of the two copied together.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	hdr := binary.BigEndian.AppendUint32(make([]byte, 0, 4), uint32(len(payload)))
	switch w.(type) {
	case *net.TCPConn, *net.UnixConn:
		bufs := net.Buffers{hdr, payload}
		_, err := bufs.WriteTo(w)
		return err
	}
	_, err := w.Write(append(hdr, payload...))
	return err
}

// ReadFrame reads one length-prefixed frame. io.EOF is returned untouched on
// a clean close between frames; a partial header or payload yields
// io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// io.ReadFull yields io.EOF only when zero header bytes arrived —
		// a clean close between frames; a torn header is ErrUnexpectedEOF.
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// --- requests ---

// Request kinds (first line of a request payload).
const (
	ReqQuery = "QUERY" // remaining payload is the SQL text
	ReqPing  = "PING"
	ReqQuit  = "QUIT"
)

// EncodeQuery builds a QUERY request payload.
func EncodeQuery(sql string) []byte {
	return []byte(ReqQuery + "\n" + sql)
}

// DecodeRequest splits a request payload into its kind and body.
func DecodeRequest(payload []byte) (kind, body string, err error) {
	s := string(payload)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		kind, body = s[:i], s[i+1:]
	} else {
		kind = s
	}
	switch kind {
	case ReqQuery, ReqPing, ReqQuit:
		return kind, body, nil
	}
	return "", "", fmt.Errorf("wire: unknown request %q", kind)
}

// --- responses ---

// Result is a decoded query result: column names, column kinds (as rendered
// by types.Kind.String), and the rows.
type Result struct {
	Cols  []string
	Kinds []string
	Rows  [][]types.Value
}

// Error is a decoded ERR response. Line/Col/Token are populated (HasPos) for
// parse errors so clients can point at the offending input.
type Error struct {
	Code   string
	Msg    string
	HasPos bool
	Line   int
	Col    int
	Token  string
}

func (e *Error) Error() string {
	if e.HasPos {
		return fmt.Sprintf("%s at %d:%d near %q: %s", e.Code, e.Line, e.Col, e.Token, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Msg)
}

// EncodeResult renders an OK response.
//
//	OK <ncols> <nrows>
//	<quoted col names, tab-separated>     (omitted when ncols == 0)
//	<col kinds, tab-separated>            (omitted when ncols == 0)
//	<encoded cells, tab-separated> × nrows
//
// It appends into one buffer sized up front, with no per-value garbage.
func EncodeResult(cols []string, kinds []string, rows []types.Row) []byte {
	b := make([]byte, 0, resultSize(cols, kinds, rows))
	b = append(b, "OK "...)
	b = strconv.AppendInt(b, int64(len(cols)), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(rows)), 10)
	b = append(b, '\n')
	if len(cols) > 0 {
		for i, c := range cols {
			if i > 0 {
				b = append(b, '\t')
			}
			b = strconv.AppendQuote(b, c)
		}
		b = append(b, '\n')
		for i, k := range kinds {
			if i > 0 {
				b = append(b, '\t')
			}
			b = append(b, k...)
		}
		b = append(b, '\n')
	}
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b = append(b, '\t')
			}
			b = appendValue(b, v)
		}
		b = append(b, '\n')
	}
	return b
}

// resultSize estimates EncodeResult's output: exact for the header lines and
// for unescaped strings, a typical width for numbers.
func resultSize(cols []string, kinds []string, rows []types.Row) int {
	n := 24
	for _, c := range cols {
		n += len(c) + 3
	}
	for _, k := range kinds {
		n += len(k) + 1
	}
	for _, row := range rows {
		n += len(row) + 1
		for _, v := range row {
			switch v.K {
			case types.KindString:
				n += len(v.S) + 3
			case types.KindFloat:
				n += 20
			case types.KindInt:
				n += 8
			default:
				n += 2
			}
		}
	}
	return n
}

// EncodeReply renders the OK response for a query result. The engine is
// dynamically typed, so the column kinds are derived from the data: the kind
// of a column's first non-NULL value, NULL if it never holds one.
func EncodeReply(cols []string, rows []types.Row) []byte {
	kinds := make([]string, len(cols))
	for i := range kinds {
		k := types.KindNull
		for _, row := range rows {
			if i < len(row) && row[i].K != types.KindNull {
				k = row[i].K
				break
			}
		}
		kinds[i] = k.String()
	}
	return EncodeResult(cols, kinds, rows)
}

// EncodePong renders the reply to PING.
func EncodePong() []byte { return []byte("PONG\n") }

// EncodeBye renders the reply to QUIT.
func EncodeBye() []byte { return []byte("BYE\n") }

// EncodeError renders an ERR response.
//
//	ERR <code>
//	POS <line> <col> <quoted token>   (only when hasPos)
//	MSG <quoted message>
func EncodeError(e *Error) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "ERR %s\n", e.Code)
	if e.HasPos {
		fmt.Fprintf(&b, "POS %d %d %s\n", e.Line, e.Col, strconv.Quote(e.Token))
	}
	fmt.Fprintf(&b, "MSG %s\n", strconv.Quote(e.Msg))
	return []byte(b.String())
}

// DecodeResponse parses a response payload into a Result, or returns the
// decoded *Error for ERR responses. PONG and BYE decode to a nil Result.
func DecodeResponse(payload []byte) (*Result, error) {
	sc := bufio.NewScanner(strings.NewReader(string(payload)))
	sc.Buffer(make([]byte, 64*1024), MaxFrame)
	if !sc.Scan() {
		return nil, fmt.Errorf("wire: empty response")
	}
	head := sc.Text()
	switch {
	case head == "PONG" || head == "BYE":
		return nil, nil
	case strings.HasPrefix(head, "ERR "):
		return nil, decodeError(head, sc)
	case strings.HasPrefix(head, "OK "):
		return decodeResult(head, sc)
	}
	return nil, fmt.Errorf("wire: malformed response header %q", head)
}

func decodeError(head string, sc *bufio.Scanner) error {
	e := &Error{Code: strings.TrimPrefix(head, "ERR ")}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "POS "):
			var tok string
			if _, err := fmt.Sscanf(line, "POS %d %d %q", &e.Line, &e.Col, &tok); err == nil {
				e.Token = tok
				e.HasPos = true
			}
		case strings.HasPrefix(line, "MSG "):
			if msg, err := strconv.Unquote(strings.TrimPrefix(line, "MSG ")); err == nil {
				e.Msg = msg
			}
		}
	}
	return e
}

func decodeResult(head string, sc *bufio.Scanner) (*Result, error) {
	var ncols, nrows int
	if _, err := fmt.Sscanf(head, "OK %d %d", &ncols, &nrows); err != nil {
		return nil, fmt.Errorf("wire: malformed OK header %q", head)
	}
	res := &Result{}
	if ncols > 0 {
		if !sc.Scan() {
			return nil, fmt.Errorf("wire: truncated response: missing column names")
		}
		for _, q := range strings.Split(sc.Text(), "\t") {
			name, err := strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("wire: bad column name %q: %v", q, err)
			}
			res.Cols = append(res.Cols, name)
		}
		if !sc.Scan() {
			return nil, fmt.Errorf("wire: truncated response: missing column kinds")
		}
		res.Kinds = strings.Split(sc.Text(), "\t")
		if len(res.Cols) != ncols || len(res.Kinds) != ncols {
			return nil, fmt.Errorf("wire: header/column count mismatch")
		}
	}
	for i := 0; i < nrows; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("wire: truncated response: %d of %d rows", i, nrows)
		}
		var row types.Row
		if line := sc.Text(); line != "" || ncols > 0 {
			cells := strings.Split(line, "\t")
			if len(cells) != ncols {
				return nil, fmt.Errorf("wire: row %d has %d cells, want %d", i, len(cells), ncols)
			}
			row = make(types.Row, ncols)
			for j, c := range cells {
				v, err := decodeValue(c)
				if err != nil {
					return nil, fmt.Errorf("wire: row %d col %d: %v", i, j, err)
				}
				row[j] = v
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// --- value codec ---

// appendValue renders one scalar with a kind tag: N (null), I<int>,
// F<shortest-exact float>, S<%q string>, B0/B1. The float form round-trips
// bit-exactly through strconv; the string form is %q so tabs and newlines
// cannot break the line structure.
func appendValue(b []byte, v types.Value) []byte {
	switch v.K {
	case types.KindInt:
		return strconv.AppendInt(append(b, 'I'), v.I, 10)
	case types.KindFloat:
		return strconv.AppendFloat(append(b, 'F'), v.F, 'g', -1, 64)
	case types.KindString:
		return strconv.AppendQuote(append(b, 'S'), v.S)
	case types.KindBool:
		if v.I != 0 {
			return append(b, "B1"...)
		}
		return append(b, "B0"...)
	}
	return append(b, 'N')
}

func decodeValue(s string) (types.Value, error) {
	if s == "" {
		return types.Null, fmt.Errorf("empty cell")
	}
	body := s[1:]
	switch s[0] {
	case 'N':
		return types.Null, nil
	case 'I':
		i, err := strconv.ParseInt(body, 10, 64)
		if err != nil {
			return types.Null, fmt.Errorf("bad int %q", body)
		}
		return types.NewInt(i), nil
	case 'F':
		f, err := strconv.ParseFloat(body, 64)
		if err != nil {
			return types.Null, fmt.Errorf("bad float %q", body)
		}
		return types.NewFloat(f), nil
	case 'S':
		str, err := strconv.Unquote(body)
		if err != nil {
			return types.Null, fmt.Errorf("bad string %q", body)
		}
		return types.NewString(str), nil
	case 'B':
		switch body {
		case "0":
			return types.NewBool(false), nil
		case "1":
			return types.NewBool(true), nil
		}
		return types.Null, fmt.Errorf("bad bool %q", body)
	}
	return types.Null, fmt.Errorf("unknown value tag %q", s[0])
}

// EncodeValue renders one scalar in the wire value form (N / I<int> /
// F<exact float> / S<%q> / B0 / B1). The write-ahead log reuses it for row
// records so WAL payloads round-trip values bit-exactly the same way the
// protocol does.
func EncodeValue(v types.Value) string { return string(appendValue(make([]byte, 0, 24), v)) }

// DecodeValue parses a value rendered by EncodeValue.
func DecodeValue(s string) (types.Value, error) { return decodeValue(s) }
