package experiments

import (
	"sort"
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/plan"
)

func TestS5SpreadsheetEqualsJoins(t *testing.T) {
	// The spreadsheet formulation of S5 and its ANSI self-join equivalent
	// must produce identical share values (the premise of Fig. 3).
	db, _, err := Setup(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	sheet, err := db.Query(S5Query(n, nil))
	if err != nil {
		t.Fatal(err)
	}
	joins, err := db.Query(S5JoinQuery(n, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(sheet.Rows) != len(joins.Rows) {
		t.Fatalf("row counts: sheet=%d joins=%d", len(sheet.Rows), len(joins.Rows))
	}
	key := func(r sqlsheet.Row) string {
		return r[0].String() + "|" + r[1].String() + "|" + r[2].String() + "|" + r[3].String()
	}
	// sheet columns: c,h,t,p,s,share1..n; join columns: same order.
	jm := map[string]sqlsheet.Row{}
	for _, r := range joins.Rows {
		jm[key(r)] = r
	}
	for _, sr := range sheet.Rows {
		jr, ok := jm[key(sr)]
		if !ok {
			t.Fatalf("join result missing cell %s", key(sr))
		}
		for c := 4; c < 5+n; c++ {
			a, b := sr[c], jr[c]
			if a.IsNull() != b.IsNull() {
				t.Fatalf("cell %s col %d: %v vs %v", key(sr), c, a, b)
			}
			if !a.IsNull() {
				d := a.Float() - b.Float()
				if d > 1e-9 || d < -1e-9 {
					t.Fatalf("cell %s col %d: %v vs %v", key(sr), c, a, b)
				}
			}
		}
	}
}

func TestFig2StrategiesAgree(t *testing.T) {
	// All pushing strategies must return the same rows for the same
	// selectivity — speed differs, results must not.
	db, _, err := Setup(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := BaseProducts(db)
	if err != nil {
		t.Fatal(err)
	}
	prods := selectProducts(base, 0.1)
	q := S5Query(3, prods)

	var baseline []string
	for _, ab := range []plan.Ablation{
		{DisableSheetPush: true, DisableSheetPrune: true},
		{Push: sqlsheet.PushExtended},
		{Push: sqlsheet.PushUnfold},
		{Push: sqlsheet.PushRefSubquery},
		{Push: sqlsheet.PushRefSubquery, ForceJoin: sqlsheet.JoinNestedLoop},
	} {
		cfg := sqlsheet.Config{Ablate: sqlsheet.Ablation{Plan: ab}}
		db.Configure(cfg)
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		var rows []string
		for _, r := range res.Rows {
			var parts []string
			for _, v := range r {
				parts = append(parts, v.String())
			}
			rows = append(rows, strings.Join(parts, "|"))
		}
		sort.Strings(rows)
		if baseline == nil {
			baseline = rows
			if len(baseline) == 0 {
				t.Fatal("baseline returned no rows")
			}
			continue
		}
		if len(rows) != len(baseline) {
			t.Fatalf("cfg %+v: %d rows vs %d", cfg, len(rows), len(baseline))
		}
		for i := range rows {
			if rows[i] != baseline[i] {
				t.Fatalf("cfg %+v: row %d differs:\n%s\n%s", cfg, i, rows[i], baseline[i])
			}
		}
	}
}

func TestFig3RunsAndCounts(t *testing.T) {
	series, err := Fig3(SmallScale, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	// Identical result cardinalities for both formulations.
	for i := range series[0].Points {
		if series[0].Points[i].Rows != series[1].Points[i].Rows {
			t.Errorf("rule count %v: %d vs %d rows",
				series[0].Points[i].X, series[0].Points[i].Rows, series[1].Points[i].Rows)
		}
	}
}

func TestFig5BudgetSweep(t *testing.T) {
	s, loads, err := Fig5(SmallScale, []int{40, 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || len(loads) != 2 {
		t.Fatalf("points = %v", s.Points)
	}
	if s.Points[0].Rows != s.Points[1].Rows {
		t.Error("budget must not change results")
	}
	if loads[0] <= loads[1] {
		t.Errorf("tight budget must load more blocks: %v", loads)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(SmallScale)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"1999-01", "1998-01", "1998-10"},
		{"1999-02", "1998-02", "1998-11"},
		{"1999-03", "1998-03", "1998-12"},
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, rows[i], want[i])
		}
	}
}

func TestFormatSeries(t *testing.T) {
	out := FormatSeries("Fig X", "selectivity", []Series{
		{Name: "a", Points: []Point{{X: 0.1, Y: 0.5}, {X: 0.2, Y: 1.0}}},
		{Name: "b", Points: []Point{{X: 0.1, Y: 1.0}}},
	})
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "selectivity") {
		t.Errorf("format broken:\n%s", out)
	}
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "2.00") {
		t.Errorf("normalization broken:\n%s", out)
	}
}

func TestSelectProducts(t *testing.T) {
	base := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	if got := selectProducts(base, 0.2); len(got) != 2 {
		t.Errorf("0.2 → %v", got)
	}
	if got := selectProducts(base, 0.0001); len(got) != 1 {
		t.Errorf("tiny → %v", got)
	}
	if got := selectProducts(base, 2.0); len(got) != 10 {
		t.Errorf("clamp → %v", got)
	}
}
