package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte("x"), 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
}

func TestFrameTornHeader(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("\x00\x00")); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: got %v", err)
	}
	// Header promises 10 bytes, only 3 arrive.
	if _, err := ReadFrame(strings.NewReader("\x00\x00\x00\x0aabc")); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn payload: got %v", err)
	}
}

func TestFrameOversized(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame must be rejected before allocation")
	}
}

func TestResultRoundTrip(t *testing.T) {
	cols := []string{"r", "weird\tname", "v"}
	kinds := []string{"STRING", "INT", "FLOAT"}
	rows := []types.Row{
		{types.NewString("a\tb\nc"), types.NewInt(-42), types.NewFloat(0.1)},
		{types.Null, types.NewInt(math.MaxInt64), types.NewFloat(math.Inf(1))},
		{types.NewString(""), types.NewBool(true), types.NewFloat(1e-300)},
	}
	res, err := DecodeResponse(EncodeResult(cols, kinds, rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 3 || res.Cols[1] != "weird\tname" {
		t.Fatalf("cols = %q", res.Cols)
	}
	if len(res.Rows) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(rows))
	}
	for i, row := range rows {
		for j, want := range row {
			got := res.Rows[i][j]
			if got.K != want.K || got.String() != want.String() {
				t.Errorf("row %d col %d: %v(%v) != %v(%v)", i, j, got, got.K, want, want.K)
			}
		}
	}
}

func TestFloatExactRoundTrip(t *testing.T) {
	vals := []float64{1.0 / 3.0, math.Pi, 0.1 + 0.2, math.SmallestNonzeroFloat64, -0.0}
	rows := []types.Row{}
	for _, f := range vals {
		rows = append(rows, types.Row{types.NewFloat(f)})
	}
	res, err := DecodeResponse(EncodeResult([]string{"f"}, []string{"FLOAT"}, rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range vals {
		got := res.Rows[i][0].F
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("float %g not bit-exact: got %g", f, got)
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	in := &Error{Code: CodeParseError, Msg: "expected \"(\" near\nnewline",
		HasPos: true, Line: 3, Col: 14, Token: "sel\tect"}
	_, err := DecodeResponse(EncodeError(in))
	out, ok := err.(*Error)
	if !ok {
		t.Fatalf("decoded %T, want *Error", err)
	}
	if *out != *in {
		t.Fatalf("error round-trip: got %+v, want %+v", out, in)
	}

	plain := &Error{Code: CodeServerBusy, Msg: "queue full"}
	_, err = DecodeResponse(EncodeError(plain))
	out, ok = err.(*Error)
	if !ok || *out != *plain {
		t.Fatalf("plain error round-trip: got %+v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	kind, body, err := DecodeRequest(EncodeQuery("SELECT 1;\nSELECT 2"))
	if err != nil || kind != ReqQuery || body != "SELECT 1;\nSELECT 2" {
		t.Fatalf("query: %q %q %v", kind, body, err)
	}
	for _, req := range []string{"NONSENSE", "SUBPLAN\nc1-42\n\x00", "CANCEL\nc1-42"} {
		if _, _, err := DecodeRequest([]byte(req)); err == nil {
			t.Fatalf("unknown request %q must error", req)
		}
	}
}

// countingWriter counts Write calls and keeps the bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite: a frame reaches the writer in one call, header and
// payload together, and reads back as written.
func TestWriteFrameOneWrite(t *testing.T) {
	var w countingWriter
	payloads := [][]byte{[]byte("PONG\n"), {}, bytes.Repeat([]byte("x"), 100000)}
	for i, p := range payloads {
		if err := WriteFrame(&w, p); err != nil {
			t.Fatal(err)
		}
		if w.writes != i+1 {
			t.Fatalf("after %d frames the writer saw %d writes", i+1, w.writes)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&w.Buffer)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame read back as %d bytes (%v), want %d", len(got), err, len(want))
		}
	}
}

// referenceEncodeResult is the encoder as it was before it appended into one
// buffer: a strings.Builder, one string per value, then a copy to []byte.
// EncodeResult must produce exactly its bytes.
func referenceEncodeResult(cols []string, kinds []string, rows []types.Row) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "OK %d %d\n", len(cols), len(rows))
	if len(cols) > 0 {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(strconv.Quote(c))
		}
		b.WriteByte('\n')
		b.WriteString(strings.Join(kinds, "\t"))
		b.WriteByte('\n')
	}
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(referenceEncodeValue(v))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func referenceEncodeValue(v types.Value) string {
	switch v.K {
	case types.KindNull:
		return "N"
	case types.KindInt:
		return "I" + strconv.FormatInt(v.I, 10)
	case types.KindFloat:
		return "F" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case types.KindString:
		return "S" + strconv.Quote(v.S)
	case types.KindBool:
		if v.I != 0 {
			return "B1"
		}
		return "B0"
	}
	return "N"
}

func TestEncodeResultMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		cols  []string
		kinds []string
		rows  []types.Row
	}{
		{"floats", []string{"f"}, []string{"FLOAT"}, []types.Row{
			{types.NewFloat(math.NaN())}, {types.NewFloat(math.Inf(1))}, {types.NewFloat(math.Inf(-1))},
			{types.NewFloat(math.Copysign(0, -1))}, {types.NewFloat(0.1)}, {types.NewFloat(1e300)},
			{types.NewFloat(math.SmallestNonzeroFloat64)}, {types.NewFloat(-1.0 / 3)},
		}},
		{"ints", []string{"i"}, []string{"INT"}, []types.Row{
			{types.NewInt(math.MinInt64)}, {types.NewInt(math.MaxInt64)}, {types.NewInt(0)}, {types.NewInt(-7)},
		}},
		{"null and bools", []string{"a", "b"}, []string{"NULL", "BOOL"}, []types.Row{
			{types.Null, types.NewBool(true)}, {types.Null, types.NewBool(false)},
		}},
		{"strings", []string{"s\tname", "q\"\n"}, []string{"STRING", "STRING"}, []types.Row{
			{types.NewString("tab\there"), types.NewString("new\nline")},
			{types.NewString(`"quoted" \ 'single'`), types.NewString("")},
			{types.NewString("bad \xff\xfe utf8"), types.NewString("ünï\x00code")},
		}},
		{"mixed kinds in a column", []string{"m"}, []string{"INT"}, []types.Row{
			{types.NewInt(1)}, {types.NewString("x")}, {types.Null}, {types.NewFloat(2.5)},
		}},
		{"zero columns", nil, nil, nil},
		{"zero columns, empty rows", nil, nil, []types.Row{{}, {}}},
		{"no rows", []string{"a", "b"}, []string{"NULL", "NULL"}, nil},
	}
	for _, c := range cases {
		got, want := EncodeResult(c.cols, c.kinds, c.rows), referenceEncodeResult(c.cols, c.kinds, c.rows)
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\ngot  %q\nwant %q", c.name, got, want)
		}
		for _, row := range c.rows {
			for _, v := range row {
				if got, want := EncodeValue(v), referenceEncodeValue(v); got != want {
					t.Errorf("%s: EncodeValue = %q, want %q", c.name, got, want)
				}
			}
		}
	}
}

// FuzzEncodeResult checks EncodeResult byte for byte against the reference
// encoder on arbitrary values.
func FuzzEncodeResult(f *testing.F) {
	f.Add("col", "a\tb\n\"c\"", int64(math.MinInt64), math.NaN(), true, uint8(3))
	f.Add("", "\xff", int64(0), math.Copysign(0, -1), false, uint8(0))
	f.Fuzz(func(t *testing.T, col, s string, i int64, fl float64, b bool, shape uint8) {
		vals := []types.Value{types.NewString(s), types.NewInt(i), types.NewFloat(fl), types.NewBool(b), types.Null}
		ncols := int(shape%4) + 1
		cols := make([]string, ncols)
		var rows []types.Row
		for r := 0; r < int(shape/4%4); r++ {
			row := make(types.Row, ncols)
			for j := range row {
				cols[j] = col + strconv.Itoa(j)
				row[j] = vals[(r+j+int(shape))%len(vals)]
			}
			rows = append(rows, row)
		}
		if shape&0x80 != 0 {
			cols = nil
			rows = append(rows, types.Row{})
		}
		kinds := make([]string, len(cols))
		for j := range kinds {
			kinds[j] = vals[j%len(vals)].K.String()
		}
		if got, want := EncodeResult(cols, kinds, rows), referenceEncodeResult(cols, kinds, rows); !bytes.Equal(got, want) {
			t.Fatalf("got  %q\nwant %q", got, want)
		}
	})
}

// TestEncodeReplyKinds: a column's kind is that of its first non-NULL value,
// NULL when it has none.
func TestEncodeReplyKinds(t *testing.T) {
	rows := []types.Row{
		{types.Null, types.NewInt(1), types.Null},
		{types.NewString("x"), types.NewFloat(2), types.Null},
	}
	res, err := DecodeResponse(EncodeReply([]string{"a", "b", "c"}, rows))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Kinds, ","); got != "STRING,INT,NULL" {
		t.Errorf("kinds = %s, want STRING,INT,NULL", got)
	}
}
