package sqlast

import (
	"strings"
	"testing"

	"sqlsheet/internal/types"
)

func lit(v any) *Literal {
	switch x := v.(type) {
	case int:
		return &Literal{Val: types.NewInt(int64(x))}
	case string:
		return &Literal{Val: types.NewString(x)}
	case float64:
		return &Literal{Val: types.NewFloat(x)}
	}
	return &Literal{Val: types.Null}
}

func col(n string) *ColumnRef { return &ColumnRef{Name: n} }

// tinyQuery is "SELECT 1" for subquery-bearing nodes.
func tinyQuery() *SelectStmt {
	return &SelectStmt{Query: &SelectBody{Items: []SelectItem{{Expr: lit(1)}}}}
}

func TestExprStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{lit(1), "1"},
		{lit("dvd"), "'dvd'"},
		{&ColumnRef{Table: "f", Name: "p"}, "f.p"},
		{&Star{}, "*"},
		{&Star{Table: "f"}, "f.*"},
		{&Unary{Op: "-", X: col("x")}, "-x"},
		{&Unary{Op: "NOT", X: col("x")}, "NOT x"},
		{&Binary{Op: "+", L: lit(1), R: lit(2)}, "(1 + 2)"},
		{&Between{X: col("t"), Lo: lit(1), Hi: lit(2)}, "t BETWEEN 1 AND 2"},
		{&Between{X: col("t"), Lo: lit(1), Hi: lit(2), Not: true}, "t NOT BETWEEN 1 AND 2"},
		{&InList{X: col("p"), List: []Expr{lit("a"), lit("b")}}, "p IN ('a', 'b')"},
		{&InList{X: col("p"), List: []Expr{lit("a")}, Not: true}, "p NOT IN ('a')"},
		{&InSubquery{X: col("p"), Sub: tinyQuery()}, "p IN (SELECT 1)"},
		{&Exists{Not: true, Sub: tinyQuery()}, "NOT EXISTS (SELECT 1)"},
		{&ScalarSubquery{Sub: tinyQuery()}, "(SELECT 1)"},
		{&IsNull{X: col("x")}, "x IS NULL"},
		{&IsNull{X: col("x"), Not: true}, "x IS NOT NULL"},
		{&Like{X: col("s"), Pattern: lit("a%")}, "s LIKE 'a%'"},
		{&Like{X: col("s"), Pattern: lit("a%"), Not: true}, "s NOT LIKE 'a%'"},
		{&FuncCall{Name: "count", Star: true}, "count(*)"},
		{&FuncCall{Name: "sum", Args: []Expr{col("s")}, Distinct: true}, "sum(DISTINCT s)"},
		{&CurrentV{Dim: "t"}, "cv(t)"},
		{&CellRef{Measure: "s", Quals: []DimQual{{Kind: QualStar}}}, "s[*]"},
		{&CellRef{Sheet: "ref", Measure: "m", Quals: []DimQual{{Kind: QualPoint, Val: lit(1)}}}, "ref.m[1]"},
		{&CellAgg{Func: "count", Star: true, Quals: []DimQual{{Kind: QualStar}}}, "count(*)[*]"},
		{&Present{Cell: &CellRef{Measure: "s", Quals: []DimQual{{Kind: QualPoint, Val: lit(1)}}}}, "s[1] IS PRESENT"},
		{&Present{Not: true, Cell: &CellRef{Measure: "s", Quals: []DimQual{{Kind: QualPoint, Val: lit(1)}}}}, "s[1] IS NOT PRESENT"},
		{&Previous{Cell: &CellRef{Measure: "s", Quals: []DimQual{{Kind: QualPoint, Val: lit(1)}}}}, "previous(s[1])"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestCaseString(t *testing.T) {
	e := &Case{
		Operand: col("x"),
		Whens:   []When{{Cond: lit(1), Then: lit("one")}},
		Else:    lit("other"),
	}
	want := "CASE x WHEN 1 THEN 'one' ELSE 'other' END"
	if got := e.String(); got != want {
		t.Errorf("case = %q", got)
	}
}

func TestDimQualStrings(t *testing.T) {
	cases := []struct {
		q    DimQual
		want string
	}{
		{DimQual{Kind: QualStar}, "*"},
		{DimQual{Kind: QualPoint, Val: lit(2002)}, "2002"},
		{DimQual{Kind: QualPoint, Dim: "t", Val: lit(2002)}, "t=2002"},
		{DimQual{Kind: QualPred, Pred: &Binary{Op: "<", L: col("t"), R: lit(5)}}, "t < 5"},
		{DimQual{Kind: QualPoint, Val: &Binary{Op: "<", L: col("t"), R: lit(5)}}, "(t < 5)"},
		{DimQual{Kind: QualRange, Dim: "t", Lo: lit(1), Hi: lit(5), LoIncl: true}, "1<=t<5"},
		{DimQual{Kind: QualForIn, Dim: "t", ForVals: []Expr{lit(1), lit(2)}}, "FOR t IN (1, 2)"},
		{DimQual{Kind: QualForIn, Dim: "t", ForSub: tinyQuery()}, "FOR t IN (SELECT 1)"},
		{DimQual{Kind: QualForIn, Dim: "t", ForFrom: lit(1), ForTo: lit(9), ForStep: lit(2)},
			"FOR t FROM 1 TO 9 INCREMENT 2"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("qual = %q, want %q", got, c.want)
		}
	}
}

func TestFormulaString(t *testing.T) {
	f := &Formula{
		Label: "f1",
		Mode:  ModeUpsert,
		LHS:   &CellRef{Measure: "s", Quals: []DimQual{{Kind: QualPoint, Val: lit(1)}}},
		OrderBy: []OrderItem{
			{Expr: col("t")}, {Expr: col("p"), Desc: true},
		},
		RHS: lit(5),
	}
	got := f.String()
	for _, part := range []string{"f1:", "UPSERT", "s[1]", "ORDER BY t, p DESC", "= 5"} {
		if !strings.Contains(got, part) {
			t.Errorf("formula %q missing %q", got, part)
		}
	}
	if ModeUpdate.String() != "UPDATE" || ModeDefault.String() != "" {
		t.Error("mode strings broken")
	}
}

func TestJoinTypeString(t *testing.T) {
	for jt, want := range map[JoinType]string{
		JoinInner: "INNER", JoinLeft: "LEFT OUTER", JoinRight: "RIGHT OUTER", JoinCross: "CROSS",
	} {
		if jt.String() != want {
			t.Errorf("JoinType %d = %q", jt, jt.String())
		}
	}
}

func TestMeaItemName(t *testing.T) {
	if (MeaItem{Expr: col("s")}).Name() != "s" {
		t.Error("colref name")
	}
	if (MeaItem{Expr: col("s"), Alias: "x"}).Name() != "x" {
		t.Error("alias wins")
	}
	if (MeaItem{Expr: lit(0)}).Name() != "0" {
		t.Error("expr fallback")
	}
}

func TestWalkExprPrune(t *testing.T) {
	e := &Binary{Op: "+", L: &FuncCall{Name: "f", Args: []Expr{col("inner")}}, R: col("outer")}
	var seen []string
	WalkExpr(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			seen = append(seen, c.Name)
		}
		// Prune descent into function calls.
		_, isFn := n.(*FuncCall)
		return !isFn
	})
	if len(seen) != 1 || seen[0] != "outer" {
		t.Errorf("prune broken: %v", seen)
	}
}

func TestCellRefsCollectsNested(t *testing.T) {
	// s[m_yago[cv(m)]] / avg(x)[t<5]
	inner := &CellRef{Measure: "m_yago", Quals: []DimQual{{Kind: QualPoint, Val: &CurrentV{Dim: "m"}}}}
	outer := &CellRef{Measure: "s", Quals: []DimQual{{Kind: QualPoint, Val: inner}}}
	agg := &CellAgg{Func: "avg", Args: []Expr{col("x")},
		Quals: []DimQual{{Kind: QualPred, Pred: &Binary{Op: "<", L: col("t"), R: lit(5)}}}}
	e := &Binary{Op: "/", L: outer, R: agg}
	cells, aggsFound := CellRefs(e)
	if len(cells) != 2 {
		t.Errorf("cells = %d, want 2 (outer + nested)", len(cells))
	}
	if len(aggsFound) != 1 {
		t.Errorf("aggs = %d", len(aggsFound))
	}
	if !ContainsCurrentV(e) {
		t.Error("cv not found")
	}
	if ContainsCurrentV(lit(1)) {
		t.Error("cv false positive")
	}
}

func TestHasSubquery(t *testing.T) {
	if !HasSubquery(&InSubquery{X: col("x")}) || !HasSubquery(&Exists{}) || !HasSubquery(&ScalarSubquery{}) {
		t.Error("subquery nodes not detected")
	}
	if HasSubquery(&Binary{Op: "+", L: lit(1), R: lit(2)}) {
		t.Error("false positive")
	}
	// Nested inside other expressions.
	if !HasSubquery(&Unary{Op: "-", X: &ScalarSubquery{}}) {
		t.Error("nested subquery not detected")
	}
}

func TestTransformRebuilds(t *testing.T) {
	e := &Binary{Op: "+", L: col("a"), R: &Case{
		Whens: []When{{Cond: col("a"), Then: col("a")}},
	}}
	out := Transform(e, func(n Expr) Expr {
		if c, ok := n.(*ColumnRef); ok && c.Name == "a" {
			return lit(7)
		}
		return n
	})
	if strings.Contains(out.String(), "a") {
		t.Errorf("transform left refs: %s", out)
	}
	// Original untouched.
	if !strings.Contains(e.String(), "a") {
		t.Error("transform mutated the input")
	}
	// Qualifier expressions are transformed too.
	cr := &CellRef{Measure: "s", Quals: []DimQual{
		{Kind: QualRange, Dim: "t", Lo: col("a"), Hi: col("a")},
		{Kind: QualForIn, Dim: "u", ForVals: []Expr{col("a")}},
	}}
	out2 := Transform(cr, func(n Expr) Expr {
		if c, ok := n.(*ColumnRef); ok && c.Name == "a" {
			return lit(3)
		}
		return n
	})
	if strings.Contains(out2.String(), "a") {
		t.Errorf("qual transform left refs: %s", out2)
	}
}

func TestTransformNil(t *testing.T) {
	if Transform(nil, func(e Expr) Expr { return e }) != nil {
		t.Error("nil transform")
	}
}

func TestWindowFuncString(t *testing.T) {
	w := &WindowFunc{
		Func:        &FuncCall{Name: "sum", Args: []Expr{col("s")}},
		PartitionBy: []Expr{col("r")},
		OrderBy:     []OrderItem{{Expr: col("t")}, {Expr: col("p"), Desc: true}},
		Frame: &WindowFrame{
			Start: FrameBound{Kind: FramePreceding, N: 2},
			End:   FrameBound{Kind: FrameCurrentRow},
		},
	}
	want := "sum(s) OVER (PARTITION BY r ORDER BY t, p DESC ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"
	if got := w.String(); got != want {
		t.Errorf("window string = %q, want %q", got, want)
	}
	empty := &WindowFunc{Func: &FuncCall{Name: "count", Star: true}}
	if got := empty.String(); got != "count(*) OVER ()" {
		t.Errorf("empty over = %q", got)
	}
	for fb, want := range map[FrameBound]string{
		{Kind: FrameUnboundedPreceding}: "UNBOUNDED PRECEDING",
		{Kind: FrameUnboundedFollowing}: "UNBOUNDED FOLLOWING",
		{Kind: FrameFollowing, N: 3}:    "3 FOLLOWING",
	} {
		if fb.String() != want {
			t.Errorf("bound %v = %q", fb, fb.String())
		}
	}
}
