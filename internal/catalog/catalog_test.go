package catalog

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

func TestCreateGetDrop(t *testing.T) {
	c := New()
	tb, err := c.Create("F", types.NewSchemaNames("t", "s"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Name != "f" {
		t.Errorf("name not lowercased: %q", tb.Name)
	}
	if _, err := c.Create("f", types.NewSchemaNames("x")); err == nil {
		t.Error("duplicate create must fail")
	}
	got, ok := c.Get("F")
	if !ok || got != tb {
		t.Error("case-insensitive Get broken")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "f" {
		t.Errorf("Names = %v", names)
	}
	c.Drop("f")
	if _, ok := c.Get("f"); ok {
		t.Error("Drop broken")
	}
}

func TestInsertCoercion(t *testing.T) {
	c := New()
	tb, _ := c.Create("f", types.NewSchema(
		types.Column{Name: "t", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindFloat},
		types.Column{Name: "p", Kind: types.KindString},
	))
	if err := tb.Insert(types.Row{types.NewFloat(2000), types.NewInt(5), types.NewString("tv")}); err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0].K != types.KindInt || tb.Rows[0][1].K != types.KindFloat {
		t.Errorf("coercion broken: %v", tb.Rows[0])
	}
	if err := tb.Insert(types.Row{types.Null, types.Null, types.Null}); err != nil {
		t.Fatalf("NULLs must insert: %v", err)
	}
	if err := tb.Insert(types.Row{types.NewString("x"), types.NewInt(1), types.NewString("y")}); err == nil {
		t.Error("string→int must fail")
	}
	if err := tb.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := New()
	tb, _ := c.Create("f", types.NewSchemaNames("t", "s", "p"))
	rows, err := ReadCSV(strings.NewReader("t,s,p\n2000,1.5,tv\n2001,,vcr\n"), tb.Schema.Len(), true)
	if err != nil || len(rows) != 2 {
		t.Fatalf("ReadCSV: %d rows, err=%v", len(rows), err)
	}
	if err := tb.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0].Int() != 2000 || tb.Rows[0][1].F != 1.5 || tb.Rows[0][2].S != "tv" {
		t.Errorf("row 0 = %v", tb.Rows[0])
	}
	if !tb.Rows[1][1].IsNull() {
		t.Error("empty field must be NULL")
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "t,s,p\n") || !strings.Contains(out, "2001,,vcr") {
		t.Errorf("WriteCSV = %q", out)
	}
}

func TestParseField(t *testing.T) {
	if v := ParseField("42"); v.K != types.KindInt {
		t.Errorf("int: %v", v)
	}
	if v := ParseField("4.5"); v.K != types.KindFloat {
		t.Errorf("float: %v", v)
	}
	if v := ParseField("1999-01"); v.K != types.KindString || v.S != "1999-01" {
		t.Errorf("month string: %v", v)
	}
	if v := ParseField(""); !v.IsNull() {
		t.Errorf("empty: %v", v)
	}
}

// TestCoerce: a value is stored in a declared kind only when it is that
// value — a FLOAT goes into an INT column when it is an integer int64 holds,
// never truncated or saturated.
func TestCoerce(t *testing.T) {
	i, f, s, b := types.KindInt, types.KindFloat, types.KindString, types.KindBool
	for _, c := range []struct {
		v    types.Value
		k    types.Kind
		want types.Value // ignored when err is set
		err  string
	}{
		{types.NewFloat(3), i, types.NewInt(3), ""},
		{types.NewFloat(math.Copysign(0, -1)), i, types.NewInt(0), ""},
		{types.NewFloat(-(1 << 63)), i, types.NewInt(math.MinInt64), ""},
		{types.NewFloat(2.5), i, types.Null, "cannot store FLOAT value 2.5 as INT"},
		{types.NewFloat(math.NaN()), i, types.Null, "value NaN as INT"},
		{types.NewFloat(math.Inf(1)), i, types.Null, "value +Inf as INT"},
		{types.NewFloat(math.Inf(-1)), i, types.Null, "value -Inf as INT"},
		{types.NewFloat(1e300), i, types.Null, "value 1e+300 as INT"},
		{types.NewFloat(-1e300), i, types.Null, "value -1e+300 as INT"},
		{types.NewFloat(1 << 63), i, types.Null, "value 9.223372036854776e+18 as INT"},
		{types.NewInt(7), f, types.NewFloat(7), ""},
		{types.NewInt(7), s, types.NewString("7"), ""},
		{types.NewFloat(2.5), s, types.NewString("2.5"), ""},
		{types.NewString("7"), i, types.Null, "cannot store STRING value as INT"},
		{types.NewInt(1), b, types.Null, "cannot store INT value as BOOL"},
		{types.NewInt(1), types.KindNull, types.Null, "cannot store INT value as NULL"},
		{types.Null, i, types.Null, ""},
		{types.NewBool(true), b, types.NewBool(true), ""},
	} {
		got, err := Coerce(c.v, c.k)
		switch {
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("Coerce(%v, %v) = %v, %v; want an error containing %q", c.v, c.k, got, err, c.err)
		case c.err == "" && (err != nil || got != c.want):
			t.Errorf("Coerce(%v, %v) = %#v, %v; want %#v", c.v, c.k, got, err, c.want)
		}
	}
	// A statement whose one value does not fit stores nothing.
	tb, _ := New().Create("t", types.NewSchema(types.Column{Name: "i", Kind: i}))
	if err := tb.Insert(types.Row{types.NewInt(1)}, types.Row{types.NewFloat(1e300)}); err == nil {
		t.Fatal("1e300 stored in an INT column")
	}
	if len(tb.Rows) != 0 || tb.Version.Load() != 0 {
		t.Fatalf("a failed insert left %d rows, version %d", len(tb.Rows), tb.Version.Load())
	}
}

// TestInsertPins: an untyped column takes the kind of the first write that
// stores a value in it, and is a declared column from then on.
func TestInsertPins(t *testing.T) {
	c := New()
	tb, _ := c.Create("u", types.NewSchemaNames("n", "m", "s", "z"))
	orig := tb.Schema
	err := tb.Insert(types.Row{types.NewInt(1), types.NewInt(1), types.NewString("a"), types.Null},
		types.Row{types.NewFloat(2.5), types.NewString("x"), types.NewString("b"), types.Null})
	if err == nil || !strings.Contains(err.Error(), `column "m": one column cannot hold INT and STRING values`) {
		t.Fatalf("mixed INT and STRING: %v", err)
	}
	if tb.Schema != orig {
		t.Fatal("a failed insert pinned a column")
	}
	if err := tb.Insert(types.Row{types.NewInt(1), types.NewInt(1), types.NewString("a"), types.Null},
		types.Row{types.NewFloat(2.5), types.Null, types.NewString("b"), types.Null}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(tb.Schema.Cols); got != "[{n FLOAT} {m INT} {s STRING} {z NULL}]" {
		t.Fatalf("pinned schema %s", got)
	}
	if orig.Cols[0].Kind != types.KindNull {
		t.Fatal("the pin wrote the schema it replaced")
	}
	if v := tb.Rows[0][0]; v.K != types.KindFloat || v.F != 1 {
		t.Fatalf("INT 1 in a FLOAT-pinned column stored as %#v", v)
	}
	if err := tb.Insert(types.Row{types.NewInt(3), types.NewFloat(2.5), types.Null, types.Null}); err == nil {
		t.Fatal("2.5 stored in a column pinned INT")
	}
}
