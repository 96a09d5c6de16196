package catalog

import (
	"bytes"
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
