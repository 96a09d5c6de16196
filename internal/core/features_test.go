package core

import (
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

func TestForFromToIncrement(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t FROM 2000 TO 2004 INCREMENT 2] = 7 )`, nil)
	out, _, err := m.Run([]types.Row{R(1999, 1.0)}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 { // 1999 + {2000, 2002, 2004}
		t.Fatalf("rows = %d: %v", len(out), out)
	}
	idx := indexRows(m, out)
	for _, year := range []int{2000, 2002, 2004} {
		if got := cell(t, idx, year)[1].Float(); got != 7 {
			t.Errorf("s[%d] = %v", year, got)
		}
	}
	if _, ok := idx[types.Key(R(2001)...)]; ok {
		t.Error("2001 must not exist (increment 2)")
	}
}

func TestForFromToDefaultsAndDescending(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t FROM 3 TO 1 INCREMENT -1] = 1 )`, nil)
	out, _, err := m.Run([]types.Row{R(0, 0.0)}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 { // seed row + {3, 2, 1}
		t.Fatalf("rows = %d", len(out))
	}
	m = mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t FROM 1 TO 3] = 1 )`, nil)
	out, _, err = m.Run([]types.Row{R(0, 0.0)}, RunOptions{})
	if err != nil || len(out) != 4 {
		t.Fatalf("default increment: %d rows, %v", len(out), err)
	}
	// Zero increment errors.
	m = mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t FROM 1 TO 3 INCREMENT 0] = 1 )`, nil)
	if _, _, err := m.Run([]types.Row{R(0, 0.0)}, RunOptions{}); err == nil || !strings.Contains(err.Error(), "INCREMENT") {
		t.Fatalf("zero increment: %v", err)
	}
}

func TestReturnUpdatedRows(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET RETURN UPDATED ROWS DBY (t) MEA (s)
		( s[2002] = s[2001] * 2,
		  UPSERT s[2003] = 1 )`, nil)
	if !m.ReturnUpdated {
		t.Fatal("ReturnUpdated not compiled")
	}
	out, _, err := m.Run([]types.Row{R(2000, 5.0), R(2001, 6.0), R(2002, 0.0)}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Only the assigned 2002 row and the upserted 2003 row come back.
	if len(out) != 2 {
		t.Fatalf("rows = %d: %v", len(out), out)
	}
	idx := indexRows(m, out)
	if got := cell(t, idx, 2002)[1].Float(); got != 12 {
		t.Errorf("s[2002] = %v", got)
	}
	if got := cell(t, idx, 2003)[1].Float(); got != 1 {
		t.Errorf("s[2003] = %v", got)
	}
}

func TestUniqueDimensionEnforced(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( s[2002] = 1 )`, nil)
	_, _, err := m.Run([]types.Row{R(2000, 1.0), R(2000, 2.0)}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "uniquely identify") {
		t.Fatalf("duplicate DBY must error, got %v", err)
	}
}

func TestForFromToBoundAnalysis(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t FROM 2000 TO 2002] = 1 )`, nil)
	rect := m.Rules[0].lhsRect
	if rect[0].All || !rect[0].IsRange {
		t.Fatalf("FOR FROM..TO bound = %+v", rect[0])
	}
	if !rect[0].Contains(V(2001)) || rect[0].Contains(V(2003)) {
		t.Errorf("bound contents wrong: %+v", rect[0])
	}
}
