package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// exprGen builds random expression trees over the fixed test schema
// (a INT, b FLOAT, c TEXT, d INT). It deliberately produces expressions
// that error at runtime (division by zero, type mismatches, bad LIKE
// operands) because Compile must reproduce the reference interpreter's
// errors (interp_test.go) exactly.
type exprGen struct {
	rng *rand.Rand
}

func (g *exprGen) lit() sqlast.Expr {
	switch g.rng.Intn(6) {
	case 0:
		return &sqlast.Literal{Val: types.NewInt(int64(g.rng.Intn(21) - 10))}
	case 1:
		return &sqlast.Literal{Val: types.NewFloat(float64(g.rng.Intn(41)-20) / 4)}
	case 2:
		pats := []string{"dvd", "d%", "%v%", "d_d", "", "100% sure", "west"}
		return &sqlast.Literal{Val: types.NewString(pats[g.rng.Intn(len(pats))])}
	case 3:
		return &sqlast.Literal{Val: types.Null}
	default:
		return &sqlast.Literal{Val: types.NewInt(int64(g.rng.Intn(3)))}
	}
}

func (g *exprGen) column() sqlast.Expr {
	names := []string{"a", "b", "c", "d"}
	return &sqlast.ColumnRef{Name: names[g.rng.Intn(len(names))]}
}

func (g *exprGen) expr(depth int) sqlast.Expr {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return g.lit()
		}
		return g.column()
	}
	d := depth - 1
	switch g.rng.Intn(12) {
	case 0:
		ops := []string{"-", "NOT"}
		return &sqlast.Unary{Op: ops[g.rng.Intn(len(ops))], X: g.expr(d)}
	case 1, 2, 3:
		ops := []string{"+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "AND", "OR", "||"}
		return &sqlast.Binary{Op: ops[g.rng.Intn(len(ops))], L: g.expr(d), R: g.expr(d)}
	case 4:
		return &sqlast.Between{X: g.expr(d), Lo: g.expr(d), Hi: g.expr(d), Not: g.rng.Intn(2) == 0}
	case 5:
		n := 1 + g.rng.Intn(12) // crosses the hashed-set threshold sometimes
		list := make([]sqlast.Expr, n)
		allLit := g.rng.Intn(2) == 0
		for i := range list {
			if allLit {
				list[i] = g.lit()
			} else {
				list[i] = g.expr(0)
			}
		}
		return &sqlast.InList{X: g.expr(d), List: list, Not: g.rng.Intn(2) == 0}
	case 6:
		return &sqlast.IsNull{X: g.expr(d), Not: g.rng.Intn(2) == 0}
	case 7:
		var pat sqlast.Expr
		if g.rng.Intn(2) == 0 {
			pats := []string{"d%", "%v%", "d_d", "west", "%", "_", ""}
			pat = &sqlast.Literal{Val: types.NewString(pats[g.rng.Intn(len(pats))])}
		} else {
			pat = g.expr(0) // dynamic pattern, possibly non-string or NULL
		}
		return &sqlast.Like{X: g.expr(d), Pattern: pat, Not: g.rng.Intn(2) == 0}
	case 8:
		n := 1 + g.rng.Intn(2)
		whens := make([]sqlast.When, n)
		for i := range whens {
			whens[i] = sqlast.When{Cond: g.expr(d), Then: g.expr(d)}
		}
		var els sqlast.Expr
		if g.rng.Intn(2) == 0 {
			els = g.expr(d)
		}
		var operand sqlast.Expr
		if g.rng.Intn(2) == 0 {
			operand = g.expr(d)
		}
		return &sqlast.Case{Operand: operand, Whens: whens, Else: els}
	case 9:
		fns := []struct {
			name string
			n    int
		}{{"abs", 1}, {"upper", 1}, {"lower", 1}, {"length", 1}, {"sign", 1},
			{"floor", 1}, {"coalesce", 2}, {"nullif", 2}, {"mod", 2}, {"least", 2}}
		f := fns[g.rng.Intn(len(fns))]
		args := make([]sqlast.Expr, f.n)
		for i := range args {
			args[i] = g.expr(d)
		}
		return &sqlast.FuncCall{Name: f.name, Args: args}
	default:
		if g.rng.Intn(2) == 0 {
			return g.lit()
		}
		return g.column()
	}
}

// compileTestRows covers NULLs, zeros (division errors), negatives and
// strings with LIKE metacharacters.
func compileTestRows() []types.Row {
	mk := func(a, b, c, d types.Value) types.Row { return types.Row{a, b, c, d} }
	return []types.Row{
		mk(types.NewInt(1), types.NewFloat(2.5), types.NewString("dvd"), types.NewInt(7)),
		mk(types.NewInt(0), types.NewFloat(0), types.NewString("west"), types.NewInt(-3)),
		mk(types.NewInt(-5), types.NewFloat(-1.25), types.NewString(""), types.NewInt(0)),
		mk(types.Null, types.NewFloat(100), types.NewString("d_d"), types.Null),
		mk(types.NewInt(42), types.Null, types.Null, types.NewInt(1)),
		mk(types.NewInt(2), types.NewFloat(0.5), types.NewString("100% sure"), types.NewInt(2)),
	}
}

func sameValErr(gv types.Value, gerr error, wv types.Value, werr error) bool {
	if (gerr != nil) != (werr != nil) {
		return false
	}
	if gerr != nil {
		return gerr.Error() == werr.Error()
	}
	if gv.K != wv.K {
		return false
	}
	return types.Key(gv) == types.Key(wv)
}

// TestCompileMatchesInterpreter is the compiled-evaluation equivalence
// property: for random expression trees over random rows, Compile+run
// returns exactly what the tree-walking interpreter returns — same value,
// same kind, and on failure the same error text — under both NULL
// navigation modes.
func TestCompileMatchesInterpreter(t *testing.T) {
	bs := NewBoundSchema([]BoundCol{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
	rows := compileTestRows()
	for seed := int64(0); seed < 300; seed++ {
		g := &exprGen{rng: rand.New(rand.NewSource(seed))}
		e := g.expr(4)
		ce := Compile(bs, e)
		for ri, row := range rows {
			for _, nav := range []types.NavMode{types.KeepNav, types.IgnoreNav} {
				wctx := &Context{Binding: &Binding{BS: bs, Row: row}, Nav: nav}
				want, werr := Eval(wctx, e)
				gctx := &Context{Binding: &Binding{BS: bs, Row: row}, Nav: nav}
				got, gerr := ce.Eval(gctx)
				if !sameValErr(got, gerr, want, werr) {
					t.Fatalf("seed %d row %d nav %v: %s\n compiled = (%v, %v)\n interp   = (%v, %v)",
						seed, ri, nav, e, got, gerr, want, werr)
				}
			}
		}
	}
}

// stubRunner is a SubqueryRunner that answers from the outer row instead of
// running anything, so subquery nodes can be compared without an executor:
// every answer is correlated (it reads the outer binding), and fail makes
// each method return an error whose text must come through unchanged.
type stubRunner struct{ fail bool }

func (s stubRunner) outerD(outer *Binding) (types.Value, error) {
	if s.fail {
		return types.Null, fmt.Errorf("stub subquery failed")
	}
	return outer.Lookup("", "d")
}

func (s stubRunner) Scalar(_ *sqlast.SelectStmt, outer *Binding) (types.Value, error) {
	return s.outerD(outer)
}

func (s stubRunner) Column(_ *sqlast.SelectStmt, outer *Binding) ([]types.Value, error) {
	d, err := s.outerD(outer)
	return []types.Value{d, types.NewInt(1), types.Null}, err
}

func (s stubRunner) Exists(_ *sqlast.SelectStmt, outer *Binding) (bool, error) {
	d, err := s.outerD(outer)
	return !d.IsNull() && d.Bool(), err
}

func (s stubRunner) In(sub *sqlast.SelectStmt, outer *Binding, v types.Value) (types.Value, error) {
	vals, err := s.Column(sub, outer)
	return InMembership(v, vals), err
}

// TestCompileMatchesInterpreterParsed re-checks equivalence on hand-written
// expressions exercising specific code paths: constant folding, the hashed
// IN-list, precompiled LIKE shapes, and the three subquery node kinds under
// a working runner, a failing runner and no runner at all.
func TestCompileMatchesInterpreterParsed(t *testing.T) {
	bs := NewBoundSchema([]BoundCol{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}})
	exprs := []string{
		"1 + 2 * 3",
		"a + b * 2 - d",
		"a / d",
		"a % d",
		"1 / 0",
		"a = d OR b > 1.5",
		"NOT (a < d AND c = 'dvd')",
		"a BETWEEN d AND 10",
		"a IN (1, 2, 3)",
		"a IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)", // hashed-set path
		"c IN ('dvd', 'vcr', c)",
		"c LIKE 'd%'",
		"c LIKE '%v%'",
		"c LIKE 'd_d'",
		"c LIKE '100!% s%' ", // literal % has no escape support; just a miss
		"c NOT LIKE c",
		"c IS NULL",
		"b IS NOT NULL",
		"CASE WHEN a > 0 THEN 'pos' WHEN a = 0 THEN 'zero' ELSE 'neg' END",
		"CASE a WHEN 1 THEN b WHEN 0 THEN -b END",
		"abs(a) + length(c)",
		"coalesce(a, d, 0)",
		"upper(c) || '-' || lower(c)",
		"a + 'oops'",
		"-c",
		"a IN (SELECT x FROM t)",
		"a NOT IN (SELECT x FROM t)",
		"a + 1 IN (SELECT x FROM t WHERE t.y = d)",
		"1 / 0 IN (SELECT x FROM t)", // the missing runner is reported before the operand's error
		"EXISTS (SELECT 1 FROM t WHERE t.x = a)",
		"NOT EXISTS (SELECT 1 FROM t)",
		"(SELECT max(x) FROM t WHERE t.y = d) + a",
		"a > (SELECT x FROM t) OR c IS NULL",
		"CASE WHEN EXISTS (SELECT 1 FROM t) THEN (SELECT x FROM t) ELSE a / 0 END",
		"coalesce((SELECT x FROM t), 1 + 2)",
	}
	runners := []SubqueryRunner{stubRunner{}, stubRunner{fail: true}, nil}
	rows := compileTestRows()
	for _, src := range exprs {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		ce := Compile(bs, e)
		for ri, row := range rows {
			for _, nav := range []types.NavMode{types.KeepNav, types.IgnoreNav} {
				for qi, run := range runners {
					want, werr := Eval(&Context{Binding: &Binding{BS: bs, Row: row}, Nav: nav, Subquery: run}, e)
					got, gerr := ce.Eval(&Context{Binding: &Binding{BS: bs, Row: row}, Nav: nav, Subquery: run})
					if !sameValErr(got, gerr, want, werr) {
						t.Errorf("%q row %d nav %v runner %d: compiled=(%v,%v) interp=(%v,%v)",
							src, ri, nav, qi, got, gerr, want, werr)
					}
				}
			}
		}
	}
	// The text a subquery node reports without a runner is part of the
	// contract (it is what a formula or a DML expression shows the user).
	e, err := parser.ParseExpr("a IN (SELECT x FROM t)")
	if err != nil {
		t.Fatal(err)
	}
	_, gerr := Compile(bs, e).Eval(&Context{Binding: &Binding{BS: bs, Row: rows[0]}})
	if gerr == nil || gerr.Error() != "subqueries not available in this context" {
		t.Errorf("nil runner: got error %v", gerr)
	}
}

// TestCompileUnboundAndAmbiguous checks that compiled column access
// reproduces the interpreter's unbound-row and ambiguous-reference errors.
func TestCompileUnboundAndAmbiguous(t *testing.T) {
	amb := NewBoundSchema([]BoundCol{{Table: "t", Name: "x"}, {Table: "u", Name: "x"}})
	e, err := parser.ParseExpr("x + 1")
	if err != nil {
		t.Fatal(err)
	}
	ce := Compile(amb, e)
	row := types.Row{types.NewInt(1), types.NewInt(2)}
	want, werr := Eval(&Context{Binding: &Binding{BS: amb, Row: row}}, e)
	got, gerr := ce.Eval(&Context{Binding: &Binding{BS: amb, Row: row}})
	if !sameValErr(got, gerr, want, werr) {
		t.Errorf("ambiguous: compiled=(%v,%v) interp=(%v,%v)", got, gerr, want, werr)
	}

	one := NewBoundSchema([]BoundCol{{Name: "a"}})
	e2, err := parser.ParseExpr("a * 2")
	if err != nil {
		t.Fatal(err)
	}
	ce2 := Compile(one, e2)
	want, werr = Eval(&Context{}, e2)
	got, gerr = ce2.Eval(&Context{})
	if !sameValErr(got, gerr, want, werr) {
		t.Errorf("unbound row: compiled=(%v,%v) interp=(%v,%v)", got, gerr, want, werr)
	}
}

// TestCompileFoldsConstants pins what the fold may and may not do: a
// constant subtree becomes its value, while one whose evaluation fails, or
// differs between the Nav modes, stays an error (or a choice) of each
// evaluation.
func TestCompileFoldsConstants(t *testing.T) {
	for src, want := range map[string]bool{
		"1 + 2 * 3":                           true,
		"upper('a') || 'b'":                   true,
		"CASE WHEN 1 = 1 THEN 1 ELSE 1/0 END": true,
		"1 / 0":                               false,
		"NULL + 1":                            false, // NULL under KEEP NAV, 1 under IGNORE NAV
		"a + 1":                               false,
		"sum(1)":                              false,
		"(SELECT 1 FROM t)":                   false,
	} {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, ok := (&selCompiler{}).foldConst(e); ok != want {
			t.Errorf("foldConst(%q) folded=%v, want %v", src, ok, want)
		}
	}
}

// TestKernelCompileAllocsLinear pins that the kernel compilers, which ask
// foldConst about every node on their way down, build nothing for a subtree
// that is not constant: doubling a left-deep `a + a + …` chain must about
// double the allocations, not quadruple them.
func TestKernelCompileAllocsLinear(t *testing.T) {
	env := NewBoundSchema([]BoundCol{{Name: "a"}})
	allocs := func(n int) float64 {
		e, err := parser.ParseExpr("a" + strings.Repeat(" + a", n))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if !CompileExprKernel(env, e).Valid() {
				t.Fatal("no kernel")
			}
		})
	}
	small, large := allocs(200), allocs(400)
	if large > 2.5*small {
		t.Errorf("allocations grew from %.0f (200 terms) to %.0f (400 terms); want linear", small, large)
	}
}
