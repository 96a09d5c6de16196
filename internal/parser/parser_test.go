package parser

import (
	"strings"
	"testing"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

func mustQuery(t *testing.T, sql string) *sqlast.SelectStmt {
	t.Helper()
	q, err := ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q
}

func body(t *testing.T, q *sqlast.SelectStmt) *sqlast.SelectBody {
	t.Helper()
	b, ok := q.Query.(*sqlast.SelectBody)
	if !ok {
		t.Fatalf("query is %T, want *SelectBody", q.Query)
	}
	return b
}

// lex tokenizes src fully up front: the token sequence the parser pulls one
// at a time, kept as the tests' reference.
func lex(src string) ([]token, error) {
	s := scanner{src: src}
	var toks []token
	for {
		sp, err := s.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, token{kind: sp.kind, text: sp.text(src), pos: sp.start, quoted: sp.quoted})
		if sp.kind == tkEOF {
			return toks, nil
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT r, 't''v' FROM f -- comment\n WHERE x <= 1.5e2 /* c */ AND y != 2")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "t'v") {
		t.Errorf("string escape broken: %v", texts)
	}
	if !strings.Contains(joined, "<=") || !strings.Contains(joined, "<>") {
		t.Errorf("operators broken: %v", texts)
	}
	if !strings.Contains(joined, "1.5e2") {
		t.Errorf("float exponent broken: %v", texts)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("select 'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := lex("select ?"); err == nil {
		t.Error("unknown char must fail")
	}
	if _, err := lex(`select "unterminated`); err == nil {
		t.Error("unterminated quoted ident must fail")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	b := body(t, mustQuery(t, "SELECT r, p AS prod, s*2 total FROM f WHERE t = 2000"))
	if len(b.Items) != 3 {
		t.Fatalf("items = %d", len(b.Items))
	}
	if b.Items[1].Alias != "prod" || b.Items[2].Alias != "total" {
		t.Errorf("aliases = %q, %q", b.Items[1].Alias, b.Items[2].Alias)
	}
	if b.Where == nil {
		t.Error("missing WHERE")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(1 + (2 * 3))" {
		t.Errorf("precedence: %s", e)
	}
	e, err = ParseExpr("a OR b AND NOT c = 1")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a OR (b AND NOT (c = 1)))" {
		t.Errorf("boolean precedence: %s", e)
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	q := mustQuery(t, `SELECT p, SUM(s) s FROM f GROUP BY p HAVING SUM(s) > 10 ORDER BY p DESC, s LIMIT 5`)
	b := body(t, q)
	if len(b.GroupBy) != 1 || b.Having == nil {
		t.Error("group/having broken")
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order by broken: %+v", q.OrderBy)
	}
	if q.Limit == nil {
		t.Error("limit broken")
	}
}

func TestParseJoins(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM f RIGHT OUTER JOIN ((SELECT DISTINCT r, p FROM f) CROSS JOIN (SELECT t FROM time_dt)) v ON (f.r = v.r AND f.p = v.p AND f.t = v.t)`)
	b := body(t, q)
	if len(b.From) != 1 {
		t.Fatalf("from = %d", len(b.From))
	}
	j, ok := b.From[0].(*sqlast.JoinRef)
	if !ok || j.Type != sqlast.JoinRight {
		t.Fatalf("expected right join, got %#v", b.From[0])
	}
	// The right side is the parenthesized cross-join tree.
	if _, ok := j.R.(*sqlast.JoinRef); !ok {
		t.Fatalf("right side = %T, want *JoinRef", j.R)
	}
}

func TestParseCommaJoin(t *testing.T) {
	b := body(t, mustQuery(t, "SELECT * FROM a, b c, d WHERE a.x = c.y"))
	if len(b.From) != 3 {
		t.Fatalf("from = %d", len(b.From))
	}
	tn := b.From[1].(*sqlast.TableName)
	if tn.Name != "b" || tn.Alias != "c" {
		t.Errorf("alias broken: %+v", tn)
	}
}

func TestParseUnionAndWith(t *testing.T) {
	q := mustQuery(t, `WITH ref AS (SELECT m FROM time_dt)
		SELECT m FROM ref UNION SELECT m_yago m FROM ref UNION ALL SELECT m_qago FROM ref`)
	if len(q.With) != 1 || q.With[0].Name != "ref" {
		t.Fatal("with broken")
	}
	u, ok := q.Query.(*sqlast.Union)
	if !ok || !u.All {
		t.Fatalf("outer union: %#v", q.Query)
	}
	if _, ok := u.L.(*sqlast.Union); !ok {
		t.Error("union must be left-associative")
	}
}

func TestParseSubqueries(t *testing.T) {
	b := body(t, mustQuery(t, `SELECT (SELECT MAX(s) FROM f) m FROM f WHERE p IN (SELECT p FROM d) AND EXISTS (SELECT 1 FROM g) AND t NOT IN (1, 2)`))
	if _, ok := b.Items[0].Expr.(*sqlast.ScalarSubquery); !ok {
		t.Error("scalar subquery broken")
	}
	if b.Where == nil {
		t.Fatal("where missing")
	}
}

func TestParseCaseBetweenLikeIsNull(t *testing.T) {
	e, err := ParseExpr(`CASE WHEN x BETWEEN 1 AND 3 THEN 'lo' WHEN x LIKE 'a%' THEN 'pat' ELSE 'hi' END`)
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*sqlast.Case)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Errorf("case broken: %s", e)
	}
	e, err = ParseExpr("x IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := e.(*sqlast.IsNull); !ok || !n.Not {
		t.Errorf("is null broken: %s", e)
	}
	e, err = ParseExpr("CASE x WHEN 1 THEN 'a' END")
	if err != nil {
		t.Fatal(err)
	}
	if c := e.(*sqlast.Case); c.Operand == nil {
		t.Error("simple case operand missing")
	}
}

func TestParseCreateInsert(t *testing.T) {
	stmts, err := Parse(`
		CREATE TABLE f (t INT, r VARCHAR(10), p TEXT, s FLOAT, c NUMBER);
		INSERT INTO f (t, r, p, s, c) VALUES (2000, 'west', 'tv', 1.5, 2), (2001, 'east', 'vcr', NULL, 3);
		INSERT INTO g SELECT * FROM f;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
	ct := stmts[0].(*sqlast.CreateTable)
	if len(ct.Cols) != 5 || ct.Cols[0].Kind != types.KindInt || ct.Cols[3].Kind != types.KindFloat {
		t.Errorf("create broken: %+v", ct)
	}
	ins := stmts[1].(*sqlast.InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Cols) != 5 {
		t.Errorf("insert broken: %+v", ins)
	}
	if stmts[2].(*sqlast.InsertStmt).Query == nil {
		t.Error("insert-select broken")
	}
}

// --- spreadsheet clause ---

func sheet(t *testing.T, sql string) *sqlast.SpreadsheetClause {
	t.Helper()
	sc := body(t, mustQuery(t, sql)).Spreadsheet
	if sc == nil {
		t.Fatalf("no spreadsheet clause in %q", sql)
	}
	return sc
}

func TestParseSpreadsheetBasic(t *testing.T) {
	sc := sheet(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		  s[p='dvd',t=2002] = s[p='dvd',t=2001]*1.6,
		  s[p='vcr',t=2002] = s[p='vcr',t=2000] + s[p='vcr',t=2001],
		  s['tv', 2002] = avg(s)['tv', 1992<t<2002]
		)`)
	if len(sc.PBY) != 1 || len(sc.DBY) != 2 || len(sc.MEA) != 1 {
		t.Fatalf("clause cols: %d %d %d", len(sc.PBY), len(sc.DBY), len(sc.MEA))
	}
	if len(sc.Rules) != 3 {
		t.Fatalf("rules = %d", len(sc.Rules))
	}
	f0 := sc.Rules[0]
	if f0.LHS.Measure != "s" || len(f0.LHS.Quals) != 2 {
		t.Fatalf("lhs broken: %s", f0.LHS)
	}
	if f0.LHS.Quals[0].Kind != sqlast.QualPoint || f0.LHS.Quals[0].Dim != "p" {
		t.Errorf("symbolic point broken: %+v", f0.LHS.Quals[0])
	}
	// Third rule: positional point + aggregate over chained range.
	f2 := sc.Rules[2]
	agg, ok := f2.RHS.(*sqlast.CellAgg)
	if !ok || agg.Func != "avg" {
		t.Fatalf("rhs agg broken: %s", f2.RHS)
	}
	r := agg.Quals[1]
	if r.Kind != sqlast.QualRange || r.Dim != "t" || r.LoIncl || r.HiIncl {
		t.Errorf("range qual broken: %+v", r)
	}
}

func TestParseSpreadsheetCvStarOrder(t *testing.T) {
	sc := sheet(t, `SELECT r,p,t,s FROM f SPREADSHEET DBY (r, p, t) MEA (s)
		( s['west',*,t>2001] = 1.2*s[cv(r),cv(p),t=cv(t)-1] )`)
	f := sc.Rules[0]
	if f.LHS.Quals[1].Kind != sqlast.QualStar {
		t.Error("star qual broken")
	}
	if f.LHS.Quals[2].Kind != sqlast.QualPred {
		t.Error("pred qual broken")
	}
	rhs := f.RHS.(*sqlast.Binary).R.(*sqlast.CellRef)
	if _, ok := rhs.Quals[0].Val.(*sqlast.CurrentV); !ok {
		t.Errorf("cv broken: %s", rhs)
	}
	// t=cv(t)-1: symbolic point with arithmetic on cv.
	q2 := rhs.Quals[2]
	if q2.Kind != sqlast.QualPoint || q2.Dim != "t" {
		t.Errorf("cv-arith point broken: %+v", q2)
	}
}

func TestParseSpreadsheetOrderByFormula(t *testing.T) {
	sc := sheet(t, `SELECT r,p,t,s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( s['vcr', t<2002] ORDER BY t ASC = avg(s)[cv(p),cv(t)-2<=t<cv(t)] )`)
	f := sc.Rules[0]
	if len(f.OrderBy) != 1 || f.OrderBy[0].Desc {
		t.Fatalf("formula order by broken: %+v", f.OrderBy)
	}
	agg := f.RHS.(*sqlast.CellAgg)
	r := agg.Quals[1]
	if r.Kind != sqlast.QualRange || !r.LoIncl || r.HiIncl {
		t.Errorf("chained cv range broken: %+v", r)
	}
}

func TestParseSpreadsheetUpsertLabelsModes(t *testing.T) {
	sc := sheet(t, `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		F1: UPDATE s['tv',2002] = slope(s,t)['tv',1992<=t<=2001]*s['tv',2001] + s['tv',2001],
		F2: UPDATE s['vcr', 2002] = s['vcr', 2000] + s['vcr', 2001],
		F4: UPSERT s['video', 2002] = s['tv',2002] + s['vcr',2002]
		)`)
	if sc.Rules[0].Label != "f1" || sc.Rules[0].Mode != sqlast.ModeUpdate {
		t.Errorf("F1 broken: %+v", sc.Rules[0])
	}
	if sc.Rules[2].Mode != sqlast.ModeUpsert {
		t.Errorf("F4 broken: %+v", sc.Rules[2])
	}
	slopeAgg := sc.Rules[0].RHS.(*sqlast.Binary).L.(*sqlast.Binary).L.(*sqlast.CellAgg)
	if slopeAgg.Func != "slope" || len(slopeAgg.Args) != 2 {
		t.Errorf("slope broken: %s", slopeAgg)
	}
	q := slopeAgg.Quals[1]
	if q.Kind != sqlast.QualRange || !q.LoIncl || !q.HiIncl {
		t.Errorf("slope range broken: %+v", q)
	}
}

func TestParseSpreadsheetForIn(t *testing.T) {
	sc := sheet(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r, p) DBY (t) MEA (s, 0 as x)
		( UPSERT x[FOR t IN (SELECT t FROM time_dt)] = 0 )`)
	if len(sc.MEA) != 2 || sc.MEA[1].Alias != "x" {
		t.Fatalf("mea broken: %+v", sc.MEA)
	}
	q := sc.Rules[0].LHS.Quals[0]
	if q.Kind != sqlast.QualForIn || q.Dim != "t" || q.ForSub == nil {
		t.Fatalf("for-in broken: %+v", q)
	}
	sc = sheet(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[FOR t IN (2000, 2001, 2002)] = 0 )`)
	if got := len(sc.Rules[0].LHS.Quals[0].ForVals); got != 3 {
		t.Errorf("for-in list = %d", got)
	}
}

func TestParseReferenceSpreadsheet(t *testing.T) {
	sc := sheet(t, `SELECT p, m, s, r_yago, r_qago FROM f
		SPREADSHEET
		  REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
		    DBY(m) MEA(m_yago, m_qago)
		  PBY(p) DBY (m) MEA (sum(s) s, r_yago, r_qago)
		(
		  F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]],
		  F2: r_qago[*] = s[cv(m)] / s[m_qago[cv(m)]]
		)`)
	if len(sc.Refs) != 1 || sc.Refs[0].Name != "prior" {
		t.Fatalf("reference broken: %+v", sc.Refs)
	}
	if len(sc.Refs[0].DBY) != 1 || len(sc.Refs[0].MEA) != 2 {
		t.Errorf("reference dby/mea broken")
	}
	if sc.MEA[0].Alias != "s" {
		t.Errorf("renamed measure broken: %+v", sc.MEA[0])
	}
	// Nested cell ref inside a qualifier.
	div := sc.Rules[0].RHS.(*sqlast.Binary)
	inner := div.R.(*sqlast.CellRef)
	if _, ok := inner.Quals[0].Val.(*sqlast.CellRef); !ok {
		t.Errorf("nested cell ref broken: %s", inner)
	}
}

func TestParseUnnamedReferenceAndRules(t *testing.T) {
	sc := sheet(t, `SELECT s, share_1, p, c, h, t FROM apb_cube
		SPREADSHEET
		  REFERENCE ON (SELECT p, parent1 FROM product_dt) DBY (p) MEA (parent1)
		  PBY (c,h,t) DBY (p) MEA (s, 0 share_1)
		RULES UPDATE
		( F1: share_1[*] = s[cv(p)] / s[parent1[cv(p)]] )`)
	if len(sc.Refs) != 1 || sc.Refs[0].Name != "" {
		t.Fatalf("unnamed ref broken: %+v", sc.Refs)
	}
	if sc.DefaultMode != sqlast.ModeUpdate {
		t.Error("RULES UPDATE must set default mode")
	}
	if sc.MEA[1].Alias != "share_1" {
		t.Errorf("implicit alias broken: %+v", sc.MEA[1])
	}
}

func TestParseIterateUntilPrevious(t *testing.T) {
	sc := sheet(t, `SELECT x, s FROM f SPREADSHEET DBY (x) MEA (s)
		ITERATE (10) UNTIL (PREVIOUS(s[1])-s[1] <= 1)
		( s[1] = s[1]/2 )`)
	if sc.Iterate == nil || sc.Iterate.N != 10 || sc.Iterate.Until == nil {
		t.Fatalf("iterate broken: %+v", sc.Iterate)
	}
	cmp := sc.Iterate.Until.(*sqlast.Binary)
	sub := cmp.L.(*sqlast.Binary)
	if _, ok := sub.L.(*sqlast.Previous); !ok {
		t.Errorf("previous broken: %s", sc.Iterate.Until)
	}
}

func TestParseOptionsSequentialIgnoreNav(t *testing.T) {
	sc := sheet(t, `SELECT r,p,t,s FROM f SPREADSHEET DBY(r,p,t) MEA(s) SEQUENTIAL ORDER IGNORE NAV
		( s['west','tv',2000] = 1 )`)
	if !sc.SeqOrder || !sc.IgnoreNav {
		t.Errorf("options broken: %+v", sc)
	}
	sc = sheet(t, `SELECT r,p,t,s FROM f MODEL DIMENSION BY (r,p,t) MEASURES (s) RULES AUTOMATIC ORDER
		( s['west','tv',2000] = 1 )`)
	if sc.SeqOrder {
		t.Error("automatic order broken")
	}
}

func TestParseIsPresent(t *testing.T) {
	sc := sheet(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( s[2002] = CASE WHEN s[2001] IS PRESENT THEN s[2001] ELSE 0 END,
		  s[2003] = CASE WHEN s[2001] IS NOT PRESENT THEN 1 ELSE 2 END )`)
	c := sc.Rules[0].RHS.(*sqlast.Case)
	pr, ok := c.Whens[0].Cond.(*sqlast.Present)
	if !ok || pr.Not {
		t.Fatalf("is present broken: %s", c)
	}
	c2 := sc.Rules[1].RHS.(*sqlast.Case)
	if pr2 := c2.Whens[0].Cond.(*sqlast.Present); !pr2.Not {
		t.Error("is not present broken")
	}
}

func TestParseInQualAndNotEqual(t *testing.T) {
	sc := sheet(t, `SELECT r,p,t,s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) UPDATE
		( s[p in ('dvd','vcr'), 2002] = c[cv(p), 2002]*2,
		  s[p != 'bike', 2002] = avg(s)[cv(p), t<2001] )`)
	q := sc.Rules[0].LHS.Quals[0]
	if q.Kind != sqlast.QualPred {
		t.Fatalf("IN qual broken: %+v", q)
	}
	if _, ok := q.Pred.(*sqlast.InList); !ok {
		t.Errorf("IN pred type: %T", q.Pred)
	}
	q2 := sc.Rules[1].LHS.Quals[0]
	if q2.Kind != sqlast.QualPred {
		t.Errorf("!= qual broken: %+v", q2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM f WHERE",
		"SELECT * FROM f SPREADSHEET MEA (s) ( )",                       // missing DBY
		"SELECT * FROM f SPREADSHEET DBY (t) ( )",                       // missing MEA
		"SELECT * FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] )",          // missing =
		"SELECT * FROM f SPREADSHEET DBY (t) MEA (s) ( 1 = 2 )",         // LHS not cell
		"SELECT * FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = cv(1) )",  // cv arg
		"CREATE TABLE t (c BLOB)",                                       // bad type
		"INSERT INTO t SET x = 1",                                       // unsupported
		"SELECT CASE END FROM f",                                        // empty case
		"SELECT * FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = s[1] ) x", // trailing
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected error for %q", sql)
		}
	}
}

func TestParseDensificationANSIEquivalent(t *testing.T) {
	// The paper's ANSI equivalent of densification must parse too.
	mustQuery(t, `SELECT f.r, f.p, f.t, f.s
		FROM f RIGHT OUTER JOIN
		     ( (SELECT DISTINCT r, p FROM f)
		        CROSS JOIN
		        (SELECT t FROM time_dt)
		      ) v
		   ON (f.r = v.r AND f.p = v.p AND f.t = v.t)`)
}

func TestParseNestedSpreadsheetInFromClause(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM
		(SELECT r, p, t, s FROM f
		 SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		 (
		 F1: s['dvd',2000]=s['dvd', 1999]*1.2,
		 F2: s['vcr',2000]=s['vcr',1998]+s['vcr',1999],
		 F3: s['tv', 2000]=avg(s)['tv', 1990<t<2000]
		 )
		) v
		WHERE p in ('dvd', 'vcr', 'video')`)
	b := body(t, q)
	sub, ok := b.From[0].(*sqlast.SubqueryRef)
	if !ok || sub.Alias != "v" {
		t.Fatalf("from subquery broken: %#v", b.From[0])
	}
	inner := sub.Sub.Query.(*sqlast.SelectBody)
	if inner.Spreadsheet == nil || len(inner.Spreadsheet.Rules) != 3 {
		t.Fatal("inner spreadsheet broken")
	}
}

func TestFormulaStringRoundtrip(t *testing.T) {
	sc := sheet(t, `SELECT r,p,t,s FROM f SPREADSHEET PBY(r) DBY(p,t) MEA(s)
		( F1: UPDATE s['vcr', t<2002] ORDER BY t ASC = avg(s)[cv(p), cv(t)-2<=t<cv(t)] )`)
	got := sc.Rules[0].String()
	for _, want := range []string{"f1:", "UPDATE", "ORDER BY t", "avg(s)[", "<=t<"} {
		if !strings.Contains(got, want) {
			t.Errorf("formula string %q missing %q", got, want)
		}
	}
}

func TestParseWindowFunctions(t *testing.T) {
	b := body(t, mustQuery(t, `SELECT p,
		rank() OVER (PARTITION BY r ORDER BY s DESC) rk,
		sum(s) OVER (ORDER BY t ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) mov,
		lag(s, 2, 0) OVER (ORDER BY t) l,
		count(*) OVER () n
		FROM f`))
	w := b.Items[1].Expr.(*sqlast.WindowFunc)
	if w.Func.Name != "rank" || len(w.PartitionBy) != 1 || len(w.OrderBy) != 1 || !w.OrderBy[0].Desc {
		t.Errorf("rank window: %s", w)
	}
	mov := b.Items[2].Expr.(*sqlast.WindowFunc)
	if mov.Frame == nil || mov.Frame.Start.Kind != sqlast.FramePreceding || mov.Frame.Start.N != 2 ||
		mov.Frame.End.Kind != sqlast.FrameCurrentRow {
		t.Errorf("frame: %+v", mov.Frame)
	}
	lagW := b.Items[3].Expr.(*sqlast.WindowFunc)
	if len(lagW.Func.Args) != 3 {
		t.Errorf("lag args: %s", lagW)
	}
	cnt := b.Items[4].Expr.(*sqlast.WindowFunc)
	if !cnt.Func.Star || len(cnt.PartitionBy) != 0 || len(cnt.OrderBy) != 0 {
		t.Errorf("count(*) over (): %s", cnt)
	}
}

func TestParseWindowFrameVariants(t *testing.T) {
	b := body(t, mustQuery(t, `SELECT
		sum(s) OVER (ORDER BY t ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) a,
		sum(s) OVER (ORDER BY t ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) b
		FROM f`))
	a := b.Items[0].Expr.(*sqlast.WindowFunc)
	if a.Frame.Start.Kind != sqlast.FrameUnboundedPreceding || a.Frame.End.Kind != sqlast.FrameUnboundedFollowing {
		t.Errorf("unbounded frame: %+v", a.Frame)
	}
	bb := b.Items[1].Expr.(*sqlast.WindowFunc)
	if bb.Frame.Start.Kind != sqlast.FrameCurrentRow || bb.Frame.End.Kind != sqlast.FrameFollowing || bb.Frame.End.N != 3 {
		t.Errorf("following frame: %+v", bb.Frame)
	}
}

func TestParseWindowErrors(t *testing.T) {
	bad := []string{
		`SELECT sum(s) OVER (ROWS BETWEEN 1 PRECEDING AND) FROM f`,
		`SELECT sum(s) OVER (ROWS BETWEEN UNBOUNDED AND CURRENT ROW) FROM f`,
		`SELECT sum(s) OVER (ORDER BY t ROWS BETWEEN 1 AND 2) FROM f`,
		`SELECT sum(s) OVER FROM f`,
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestParseCreateViewRefreshDrop(t *testing.T) {
	stmts, err := Parse(`
		CREATE VIEW v AS SELECT a FROM t;
		CREATE MATERIALIZED VIEW mv AS SELECT a FROM t;
		REFRESH mv;
		REFRESH MATERIALIZED VIEW mv FULL;
		DROP VIEW v;
		DROP TABLE t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	cv := stmts[0].(*sqlast.CreateView)
	if cv.Name != "v" || cv.Materialized {
		t.Errorf("create view: %+v", cv)
	}
	mv := stmts[1].(*sqlast.CreateView)
	if !mv.Materialized {
		t.Errorf("materialized flag: %+v", mv)
	}
	r1 := stmts[2].(*sqlast.RefreshStmt)
	if r1.Name != "mv" || r1.Full {
		t.Errorf("refresh: %+v", r1)
	}
	r2 := stmts[3].(*sqlast.RefreshStmt)
	if !r2.Full {
		t.Errorf("refresh full: %+v", r2)
	}
	if stmts[4].(*sqlast.DropStmt).Name != "v" {
		t.Error("drop view")
	}
}
