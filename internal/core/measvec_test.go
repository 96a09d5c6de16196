package core

import (
	"errors"
	"fmt"
	"testing"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// kindModel compiles a one-measure sheet (PBY r, DBY t, MEA s) whose
// source s has static kind src.
func kindModel(t *testing.T, src types.Kind, rule string) *Model {
	t.Helper()
	sc := mustClause(t, `SELECT r, t, s FROM f SPREADSHEET PBY (r) DBY (t) MEA (s) (`+rule+`)`)
	m, err := Compile(sc, types.NewSchema(types.Column{Name: "r", Kind: types.KindString},
		types.Column{Name: "t", Kind: types.KindInt}, types.Column{Name: "s", Kind: src}), nil, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// kindFrames builds m over three rows of s values vals, unbudgeted and
// budgeted, and returns each structure's one frame.
func kindFrames(t *testing.T, m *Model, vals ...types.Value) map[string]*Frame {
	t.Helper()
	var rows []types.Row
	for i, v := range vals {
		rows = append(rows, types.Row{V("west"), V(2000 + i), v})
	}
	out := map[string]*Frame{}
	for name, store := range map[string]StoreFactory{"vectors": nil, "store": func() blockstore.Store {
		return blockstore.NewSpill(blockstore.Config{BudgetBytes: 1 << 20, RowsPerBlock: 2, Dir: t.TempDir()})
	}} {
		ps, err := BuildPartitionsOpts(m, rows, 1, store, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		t.Cleanup(func() { ps.Close() })
		out[name] = ps.buckets[0].frames[0]
	}
	return out
}

// TestWritesConvertToMeasureKind: a FLOAT measure (its source's kind, the
// rule's INT literal meeting it) stores an INT written to it — one cell, a
// batch, its input — as FLOAT, and refuses a STRING with the KindError that
// names it, on the vector and the row store alike.
func TestWritesConvertToMeasureKind(t *testing.T) {
	m := kindModel(t, types.KindFloat, `s[2000] = 1`)
	if got := m.KindsNote(); got != "kinds: s FLOAT" {
		t.Fatalf("KindsNote = %q", got)
	}
	for name, f := range kindFrames(t, m, V(1.5), V(2.5), V(3.5)) {
		col := m.MeasureOrdinal("s")
		if _, err := f.SetMeasure(0, col, V(7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vec := &eval.ExprVec{Kind: types.KindInt, Ints: []int64{8, 9}}
		if err := f.SetMeasureBulk([]int32{1, 2}, col, vec, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pos, want := range []float64{7, 8, 9} {
			if got := f.value(pos, col); got.K != types.KindFloat || got.F != want {
				t.Errorf("%s: cell %d = %v (%s), want FLOAT %v", name, pos, got, got.K, want)
			}
		}
		_, err := f.SetMeasure(0, col, V("x"))
		var ke *KindError
		if !errors.As(err, &ke) || err.Error() != "spreadsheet: measure s cannot hold both FLOAT and STRING values" {
			t.Errorf("%s: STRING into FLOAT: %v", name, err)
		}
		if err := f.SetMeasureBulk([]int32{0}, col, &eval.ExprVec{Kind: types.KindString, Strs: []string{"y"}}, 0); !errors.As(err, &ke) {
			t.Errorf("%s: STRING batch into FLOAT: %v", name, err)
		}
		if got := f.value(0, col); got.F != 7 {
			t.Errorf("%s: a refused write changed the cell: %v", name, got)
		}
	}
	// The input converts too: an INT source column under a FLOAT measure.
	m = kindModel(t, types.KindInt, `s[2000] = 0.5`)
	for name, f := range kindFrames(t, m, V(1), types.Null, V(3)) {
		col := m.MeasureOrdinal("s")
		if got := f.value(2, col); got.K != types.KindFloat || got.F != 3 {
			t.Errorf("%s: input INT 3 reads %v (%s), want FLOAT 3", name, got, got.K)
		}
		if got := f.value(1, col); !got.IsNull() {
			t.Errorf("%s: input NULL reads %v", name, got)
		}
	}
}

// TestMeasureKindDecidedPerRun: a measure whose source compile time cannot
// type is decided when a run starts, by the same union over its input's
// kind: INT input under a FLOAT right side makes FLOAT, earlier cells
// included, and a STRING written after that is refused.
func TestMeasureKindDecidedPerRun(t *testing.T) {
	m := kindModel(t, eval.KindUnseen, `s[2000] = 2.5`)
	if got := m.KindsNote(); got != "kinds: s input" {
		t.Fatalf("KindsNote = %q", got)
	}
	for name, f := range kindFrames(t, m, V(4), types.Null, V(5)) {
		col := m.MeasureOrdinal("s")
		if got := f.value(0, col); got.K != types.KindFloat || got.F != 4 {
			t.Errorf("%s: input INT 4 reads %v (%s), want FLOAT 4", name, got, got.K)
		}
		if _, err := f.SetMeasure(1, col, V(7)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f.value(1, col); got.K != types.KindFloat || got.F != 7 {
			t.Errorf("%s: INT 7 written reads %v (%s), want FLOAT 7", name, got, got.K)
		}
		if _, err := f.SetMeasure(2, col, V("z")); err == nil ||
			err.Error() != "spreadsheet: measure s cannot hold both FLOAT and STRING values" {
			t.Errorf("%s: STRING into FLOAT: %v", name, err)
		}
	}
}

// TestCompileKindConflict: a STRING measure a rule assigns a FLOAT is a
// compile error naming the measure and both kinds; a CASE of INT and FLOAT
// arms makes FLOAT; a right side reading a FLOAT measure makes its target
// FLOAT through the fixpoint.
func TestCompileKindConflict(t *testing.T) {
	sc := mustClause(t, `SELECT r, t, s FROM f SPREADSHEET PBY (r) DBY (t) MEA (s) (s[2000] = 1.5)`)
	_, err := Compile(sc, types.NewSchema(types.Column{Name: "r"}, types.Column{Name: "t"},
		types.Column{Name: "s", Kind: types.KindString}), nil, nil)
	if err == nil || err.Error() != "spreadsheet: measure s cannot hold both FLOAT and STRING values" {
		t.Errorf("STRING measure assigned FLOAT: %v", err)
	}
	sc = mustClause(t, `SELECT t, s, u, w FROM f SPREADSHEET DBY (t) MEA (s, u, w)
		(u[2000] = CASE WHEN s[2000] > 1 THEN 1 ELSE 2.5 END, w[2000] = u[2000] + 1)`)
	m, err := Compile(sc, types.NewSchema(types.Column{Name: "t"}, types.Column{Name: "s", Kind: types.KindInt},
		types.Column{Name: "u", Kind: types.KindInt}, types.Column{Name: "w", Kind: types.KindInt}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.KindsNote(); got != "kinds: s INT, u FLOAT, w FLOAT" {
		t.Errorf("KindsNote = %q", got)
	}
	// A scalar subquery takes its kind from sub; one sub cannot type adds
	// nothing, so a NULL measure it alone assigns has no kind.
	sc = mustClause(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) (s[2000] = (SELECT MAX(x) FROM g))`)
	ws := types.NewSchema(types.Column{Name: "t", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindNull})
	for sub, want := range map[types.Kind]string{
		types.KindFloat: "kinds: s FLOAT",
		eval.KindUnseen: "spreadsheet: measure s has no known kind: every value assigned to it is of a kind known only when it runs",
	} {
		m, err := Compile(sc, ws, nil, func(*sqlast.SelectStmt) types.Kind { return sub })
		got := fmt.Sprint(err)
		if err == nil {
			got = m.KindsNote()
		}
		if got != want {
			t.Errorf("subquery of kind %s: %q, want %q", sub, got, want)
		}
	}
}
