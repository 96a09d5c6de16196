package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// V builds a Value from a Go literal.
func V(x any) types.Value {
	switch v := x.(type) {
	case int:
		return types.NewInt(int64(v))
	case int64:
		return types.NewInt(v)
	case float64:
		return types.NewFloat(v)
	case string:
		return types.NewString(v)
	case bool:
		return types.NewBool(v)
	case nil:
		return types.Null
	case types.Value:
		return v
	}
	panic(fmt.Sprintf("V(%T)", x))
}

// R builds a Row.
func R(vals ...any) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = V(v)
	}
	return r
}

// mustClause extracts the spreadsheet clause from a SQL query.
func mustClause(t testing.TB, sql string) *sqlast.SpreadsheetClause {
	t.Helper()
	q, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	body := q.Query.(*sqlast.SelectBody)
	if body.Spreadsheet == nil {
		t.Fatal("no spreadsheet clause")
	}
	return body.Spreadsheet
}

// workingSchema derives the working schema from the clause's PBY/DBY/MEA.
func workingSchema(t testing.TB, sc *sqlast.SpreadsheetClause) *types.Schema {
	t.Helper()
	var cols []types.Column
	for _, lists := range [][]sqlast.Expr{sc.PBY, sc.DBY} {
		for _, e := range lists {
			c, ok := e.(*sqlast.ColumnRef)
			if !ok {
				t.Fatalf("test helper requires plain column refs, got %s", e)
			}
			cols = append(cols, types.Column{Name: c.Name, Kind: eval.KindUnseen})
		}
	}
	// The tests' rows carry no declared kinds: every source is unseen.
	for _, mi := range sc.MEA {
		cols = append(cols, types.Column{Name: mi.Name(), Kind: eval.KindUnseen})
	}
	return types.NewSchema(cols...)
}

// refMetaFor builds RefMeta (with data) from the clause's reference sheets.
func refMetaFor(t testing.TB, sc *sqlast.SpreadsheetClause, data map[string][]types.Row) []*RefMeta {
	t.Helper()
	var out []*RefMeta
	for i, rs := range sc.Refs {
		name := rs.Name
		if name == "" {
			name = fmt.Sprintf("ref_%d", i+1)
		}
		rm := &RefMeta{Name: name, Src: rs}
		for _, e := range rs.DBY {
			rm.Dims = append(rm.Dims, e.(*sqlast.ColumnRef).Name)
		}
		for _, mi := range rs.MEA {
			rm.Meas = append(rm.Meas, mi.Name())
		}
		if err := rm.Load(data[name]); err != nil {
			t.Fatal(err)
		}
		out = append(out, rm)
	}
	return out
}

// mustModel compiles a clause from SQL.
func mustModel(t testing.TB, sql string, refData map[string][]types.Row) *Model {
	t.Helper()
	sc := mustClause(t, sql)
	m, err := Compile(sc, workingSchema(t, sc), refMetaFor(t, sc, refData), nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// run executes the model and indexes results by their dimension key.
func run(t *testing.T, m *Model, rows []types.Row, opts RunOptions) map[string]types.Row {
	t.Helper()
	out, _, err := m.Run(rows, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return indexRows(m, out)
}

func indexRows(m *Model, out []types.Row) map[string]types.Row {
	idx := make(map[string]types.Row, len(out))
	for _, r := range out {
		idx[types.Key(r[:m.NPby+m.NDby]...)] = r
	}
	return idx
}

// cell fetches a result row by its pby+dby values.
func cell(t *testing.T, idx map[string]types.Row, keys ...any) types.Row {
	t.Helper()
	r, ok := idx[types.Key(R(keys...)...)]
	if !ok {
		t.Fatalf("no cell %v", keys)
	}
	return r
}

// --- compile-time validation ---

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, sql, want string
	}{
		{"unknown measure", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( z[1] = 2 )`, "not a MEA column"},
		{"wrong arity", `SELECT 1 FROM f SPREADSHEET DBY (p, t) MEA (s) ( s[1] = 2 )`, "qualifiers"},
		{"wrong symbolic dim", `SELECT 1 FROM f SPREADSHEET DBY (p, t) MEA (s) ( s[t=1, 2] = 3 )`, "position binds"},
		{"upsert existential", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( UPSERT s[t<5] = 3 )`, "UPSERT is not allowed"},
		{"cv on lhs", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[cv(t)] = 3 )`, "cv() is not allowed on the left"},
		{"rhs range no agg", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = s[t<5] )`, "single value"},
		{"cv unknown dim", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = s[cv(x)] )`, "does not name a DBY"},
		{"for on rhs", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = sum(s)[FOR t IN (1,2)] )`, "left side"},
		{"previous in formula", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = previous(s[1]) )`, "UNTIL"},
		{"order by on point", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] ORDER BY t = 2 )`, "existential"},
		{"bad agg", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = median(s)[t<5] )`, "not an aggregate"},
		{"slope arity", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = slope(s)[t<5] )`, "takes 2 arguments"},
		{"star agg", `SELECT 1 FROM f SPREADSHEET DBY (t) MEA (s) ( s[1] = sum(*)[t<5] )`, "not supported"},
		{"pred other dim", `SELECT 1 FROM f SPREADSHEET DBY (p, t) MEA (s) ( s[p='a', p=1] = 2 )`, "position binds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := mustClause(t, c.sql)
			_, err := Compile(sc, workingSchema(t, sc), nil, nil)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestCompileDuplicateColumns(t *testing.T) {
	sc := mustClause(t, `SELECT 1 FROM f SPREADSHEET PBY(r) DBY (r) MEA (s) ( s[1] = 2 )`)
	ws := types.NewSchemaNames("r", "r", "s")
	if _, err := Compile(sc, ws, nil, nil); err == nil {
		t.Fatal("duplicate columns must fail")
	}
}

// --- basic execution (paper §2 examples) ---

// fRows is the electronics fact table used throughout the paper:
// f(r, p, t, s) here (cost column added where needed).
func fRows() []types.Row {
	var rows []types.Row
	for _, r := range []string{"west", "east"} {
		for _, p := range []string{"dvd", "vcr", "tv"} {
			for ti := 1998; ti <= 2002; ti++ {
				// Deterministic, distinct values: s = f(region, product, year).
				base := float64(ti - 1990)
				if p == "vcr" {
					base *= 2
				}
				if p == "tv" {
					base *= 3
				}
				if r == "east" {
					base += 100
				}
				rows = append(rows, R(r, p, ti, base))
			}
		}
	}
	return rows
}

func TestBasicPointFormulas(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		  s[p='dvd',t=2002] = s[p='dvd',t=2001]*1.6,
		  s[p='vcr',t=2002] = s[p='vcr',t=2000] + s[p='vcr',t=2001],
		  s['tv', 2002] = avg(s)['tv', 1992<t<2002]
		)`, nil)
	idx := run(t, m, fRows(), RunOptions{})
	// west: dvd 2001 = 11 → 2002 = 17.6
	if got := cell(t, idx, "west", "dvd", 2002)[3].Float(); got != 17.6 {
		t.Errorf("dvd west 2002 = %v", got)
	}
	// west: vcr 2000=20, 2001=22 → 42
	if got := cell(t, idx, "west", "vcr", 2002)[3].Float(); got != 42 {
		t.Errorf("vcr west 2002 = %v", got)
	}
	// west: tv avg over 1998..2001 (within 1992<t<2002) = 3*(8+9+10+11)/4 = 28.5
	if got := cell(t, idx, "west", "tv", 2002)[3].Float(); got != 28.5 {
		t.Errorf("tv west 2002 = %v", got)
	}
	// east partition independent: dvd east 2001 = 111 → 177.6
	if got := cell(t, idx, "east", "dvd", 2002)[3].Float(); math.Abs(got-177.6) > 1e-9 {
		t.Errorf("dvd east 2002 = %v", got)
	}
}

func TestCvAndStarExistential(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET DBY (r, p, t) MEA (s)
		( s['west',*,t>2001] = 1.2*s[cv(r),cv(p),t=cv(t)-1] )`, nil)
	idx := run(t, m, fRows(), RunOptions{})
	// s[west, dvd, 2002] = 1.2 * s[west, dvd, 2001] = 1.2*11
	if got := cell(t, idx, "west", "dvd", 2002)[3].Float(); got != 1.2*11 {
		t.Errorf("existential cv = %v", got)
	}
	// east untouched.
	if got := cell(t, idx, "east", "dvd", 2002)[3].Float(); got != 112 {
		t.Errorf("east must be untouched: %v", got)
	}
}

func TestUpsertCreatesRows(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		( UPSERT s['tv', 2000] = s['black-tv',2000] + s['white-tv',2000] )`, nil)
	rows := []types.Row{
		R("west", "black-tv", 2000, 5.0),
		R("west", "white-tv", 2000, 7.0),
		R("east", "black-tv", 2000, 1.0),
		R("east", "white-tv", 2000, 2.0),
	}
	idx := run(t, m, rows, RunOptions{})
	if got := cell(t, idx, "west", "tv", 2000)[3].Float(); got != 12 {
		t.Errorf("upsert west = %v", got)
	}
	if got := cell(t, idx, "east", "tv", 2000)[3].Float(); got != 3 {
		t.Errorf("upsert east = %v", got)
	}
	if len(idx) != 6 {
		t.Errorf("expected 6 rows, got %d", len(idx))
	}
}

func TestUpdateIgnoresMissingCells(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f
		SPREADSHEET DBY (t) MEA (s) UPDATE
		( s[1999] = 42 )`, nil)
	out, _, err := m.Run([]types.Row{R(2000, 1.0)}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("UPDATE must not create rows: %d", len(out))
	}
}

func TestDefaultModeIsUpsert(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) ( s[1999] = 42 )`, nil)
	out, _, err := m.Run([]types.Row{R(2000, 1.0)}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("default UPSERT must create the row: %d rows", len(out))
	}
}

func TestUpsertedRowColumns(t *testing.T) {
	// New rows: PBY from partition, DBY from target, other measures NULL.
	m := mustModel(t, `SELECT r, t, s, c FROM f
		SPREADSHEET PBY(r) DBY (t) MEA (s, c)
		( UPSERT s[2003] = 9 )`, nil)
	idx := run(t, m, []types.Row{R("west", 2000, 1.0, 2.0)}, RunOptions{})
	row := cell(t, idx, "west", 2003)
	if row[2].Float() != 9 || !row[3].IsNull() {
		t.Errorf("upserted row = %v", row)
	}
}

func TestDensificationForIn(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r, p) DBY (t) MEA (s, 0 as x)
		( UPSERT x[FOR t IN (1998, 1999, 2000, 2001)] = 0 )`, nil)
	rows := []types.Row{
		R("west", "dvd", 1998, 10.0, 0),
		R("west", "dvd", 2001, 13.0, 0),
		R("east", "vcr", 1999, 5.0, 0),
	}
	out, _, err := m.Run(rows, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every (r, p) partition must now have all 4 years.
	if len(out) != 8 {
		t.Fatalf("densification rows = %d, want 8", len(out))
	}
	idx := indexRows(m, out)
	gap := cell(t, idx, "west", "dvd", 1999)
	if !gap[3].IsNull() || gap[4].Int() != 0 {
		t.Errorf("gap row = %v (s must stay NULL, x = 0)", gap)
	}
}

func TestIsPresent(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s)
		( UPSERT s[2001] = 5,
		  s[2002] = CASE WHEN s[2001] IS PRESENT THEN 100 ELSE 200 END,
		  s[2003] = CASE WHEN s[1990] IS NOT PRESENT THEN 300 ELSE 400 END )`, nil)
	idx := run(t, m, []types.Row{R(2000, 1.0)}, RunOptions{})
	// s[2001] was upserted, so it was NOT present before execution.
	if got := cell(t, idx, 2002)[1].Float(); got != 200 {
		t.Errorf("IS PRESENT must see pre-execution state: %v", got)
	}
	if got := cell(t, idx, 2003)[1].Float(); got != 300 {
		t.Errorf("IS NOT PRESENT: %v", got)
	}
}

func TestIgnoreNav(t *testing.T) {
	sql := `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) %s ( s[2001] = s[2000] + s[1999] )`
	// Without IGNORE NAV: missing cell (NULL) + value = NULL.
	m := mustModel(t, fmt.Sprintf(sql, ""), nil)
	idx := run(t, m, []types.Row{R(2000, 7.0)}, RunOptions{})
	if got := cell(t, idx, 2001)[1]; !got.IsNull() {
		t.Errorf("KEEP NAV: %v", got)
	}
	// With IGNORE NAV: NULL treated as 0.
	m = mustModel(t, fmt.Sprintf(sql, "IGNORE NAV"), nil)
	idx = run(t, m, []types.Row{R(2000, 7.0)}, RunOptions{})
	if got := cell(t, idx, 2001)[1].Float(); got != 7 {
		t.Errorf("IGNORE NAV: %v", got)
	}
}

// --- automatic ordering / dependency analysis ---

func TestAutomaticOrderDependencies(t *testing.T) {
	m := mustModel(t, `SELECT p, t, s FROM f SPREADSHEET DBY (p, t) MEA (s)
		(
		  s['dvd',2002] = s['dvd',2000] + s['dvd',2001],
		  s['dvd',2001] = 1000
		)`, nil)
	idx := run(t, m, []types.Row{R("dvd", 2000, 5.0), R("dvd", 2001, 7.0)}, RunOptions{})
	// The second formula must run first: 5 + 1000.
	if got := cell(t, idx, "dvd", 2002)[2].Float(); got != 1005 {
		t.Errorf("automatic order = %v, want 1005", got)
	}
}

func TestGenLevelsScanSharing(t *testing.T) {
	// Paper §4 example: F3 -> F2; F1 is an independent scan. GenLevels must
	// put F3 alone in level 1 and share level 2 between scans F1 and F2.
	m := mustModel(t, `SELECT p, t, s FROM f SPREADSHEET DBY(p,t) MEA(s)
		(
		F1: s['tv', 2000] = sum(s)['tv', 1990<t<2000],
		F2: s['vcr',2000] = sum(s)['vcr', 1995<t<2000],
		F3: s['vcr',1999] = s['vcr',1997] + s['vcr',1998]
		)`, nil)
	if err := m.Analyze(); err != nil {
		t.Fatal(err)
	}
	steps, cyc := m.Levels()
	if len(steps) != 2 {
		t.Fatalf("levels = %v", steps)
	}
	if len(steps[0]) != 1 || steps[0][0] != 2 {
		t.Errorf("level 1 = %v, want [F3]", steps[0])
	}
	if len(steps[1]) != 2 {
		t.Errorf("level 2 = %v, want [F1 F2]", steps[1])
	}
	for _, c := range cyc {
		if c {
			t.Error("no step should be cyclic")
		}
	}
	if m.Cyclic() {
		t.Error("model must be acyclic")
	}
	// And the numbers come out right: F3 computes vcr 1999 before F2 sums it.
	rows := []types.Row{
		R("vcr", 1997, 1.0), R("vcr", 1998, 2.0), R("vcr", 1999, 100.0), R("vcr", 2000, 0.0),
		R("tv", 1995, 10.0), R("tv", 2000, 0.0),
	}
	idx := run(t, m, rows, RunOptions{})
	if got := cell(t, idx, "vcr", 2000)[2].Float(); got != 1+2+3 {
		t.Errorf("F2 = %v, want 6 (uses F3's vcr 1999 = 3)", got)
	}
	if got := cell(t, idx, "tv", 2000)[2].Float(); got != 10 {
		t.Errorf("F1 = %v", got)
	}
}

func TestExistentialOrderByAscDesc(t *testing.T) {
	// Running average over two preceding years: ascending vs descending
	// order gives different results (the paper's motivating case for ORDER
	// BY on formulas).
	sql := `SELECT p, t, s FROM f SPREADSHEET DBY (p, t) MEA (s)
		( s['vcr', t<2002] ORDER BY t %s = avg(s)[cv(p), cv(t)-2<=t<cv(t)] )`
	rows := func() []types.Row {
		return []types.Row{
			R("vcr", 1998, 1.0), R("vcr", 1999, 2.0), R("vcr", 2000, 4.0), R("vcr", 2001, 8.0),
		}
	}
	mAsc := mustModel(t, fmt.Sprintf(sql, "ASC"), nil)
	idxAsc := run(t, mAsc, rows(), RunOptions{})
	mDesc := mustModel(t, fmt.Sprintf(sql, "DESC"), nil)
	idxDesc := run(t, mDesc, rows(), RunOptions{})
	ascV := cell(t, idxAsc, "vcr", 2001)[2].Float()
	descV := cell(t, idxDesc, "vcr", 2001)[2].Float()
	if ascV == descV {
		t.Errorf("ASC and DESC must differ: %v vs %v", ascV, descV)
	}
	// DESC: 2001 computed first from original 1999=2, 2000=4 → 3.
	if descV != 3 {
		t.Errorf("DESC s[2001] = %v, want 3", descV)
	}
	// ASC: 1998 first (avg of 1996,1997 = missing → NULL), then cascade.
	if got := cell(t, idxAsc, "vcr", 1998)[2]; !got.IsNull() {
		t.Errorf("ASC s[1998] = %v, want NULL", got)
	}
}

func TestSlopeOverCells(t *testing.T) {
	// Paper §3 formula F1: slope-scaled forecast.
	m := mustModel(t, `SELECT p, t, s FROM f SPREADSHEET DBY (p, t) MEA (s) UPDATE
		( s['tv',2002] = slope(s,t)['tv',1992<=t<=2001]*s['tv',2001] + s['tv',2001] )`, nil)
	var rows []types.Row
	for ti := 1992; ti <= 2001; ti++ {
		rows = append(rows, R("tv", ti, float64(ti-1990)*2)) // slope exactly 2
	}
	rows = append(rows, R("tv", 2002, 0.0))
	idx := run(t, m, rows, RunOptions{})
	// s[2001] = 22, slope = 2 → 2*22 + 22 = 66.
	if got := cell(t, idx, "tv", 2002)[2].Float(); got != 66 {
		t.Errorf("slope forecast = %v, want 66", got)
	}
}

// --- cyclic execution ---

func TestCyclicConvergence(t *testing.T) {
	// Two formulas referencing each other's cells converge when the values
	// stabilize: s[1] = s[2], s[2] = s[1] with equal initial values.
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) UPDATE
		( s[1] = s[2], s[2] = s[1] )`, nil)
	if err := m.Analyze(); err != nil {
		t.Fatal(err)
	}
	if !m.Cyclic() {
		t.Fatal("model must be detected as cyclic")
	}
	idx := run(t, m, []types.Row{R(1, 5.0), R(2, 5.0)}, RunOptions{})
	if cell(t, idx, 1)[1].Float() != 5 || cell(t, idx, 2)[1].Float() != 5 {
		t.Error("stable cycle must converge")
	}
}

func TestCyclicDivergenceError(t *testing.T) {
	// s[1] = s[1]/2 without ITERATE: genuinely cyclic, never converges →
	// error after N iterations (paper: "an error is returned to the user").
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) UPDATE
		( s[1] = s[1]/2 )`, nil)
	_, _, err := m.Run([]types.Row{R(1, 1024.0)}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "converge") {
		t.Fatalf("expected convergence error, got %v", err)
	}
}

func TestSpuriousCycleConverges(t *testing.T) {
	// Complex predicates can over-estimate the dependency relation; an
	// actually-acyclic spreadsheet must still produce correct results via
	// the Auto-Cyclic algorithm within its N-iteration bound.
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) UPDATE
		( s[2001] = s[t=2002-2]*2,
		  s[2002] = s[t=2001] + 1 )`, nil)
	// t=2002-2 folds to 2000 statically; force a spurious cycle instead by
	// checking the engine handles the cyclic path even if analysis was
	// exact. Run and verify values regardless of classification.
	idx := run(t, m, []types.Row{R(2000, 3.0), R(2001, 0.0), R(2002, 0.0)}, RunOptions{})
	if got := cell(t, idx, 2001)[1].Float(); got != 6 {
		t.Errorf("s[2001] = %v", got)
	}
	if got := cell(t, idx, 2002)[1].Float(); got != 7 {
		t.Errorf("s[2002] = %v", got)
	}
}

// --- sequential order and iteration ---

func TestSequentialOrder(t *testing.T) {
	// In sequential order the first formula sees the ORIGINAL s[2001].
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) SEQUENTIAL ORDER
		(
		  s[2002] = s[2000] + s[2001],
		  s[2001] = 1000
		)`, nil)
	idx := run(t, m, []types.Row{R(2000, 5.0), R(2001, 7.0)}, RunOptions{})
	if got := cell(t, idx, 2002)[1].Float(); got != 12 {
		t.Errorf("sequential = %v, want 12 (not 1005)", got)
	}
	if got := cell(t, idx, 2001)[1].Float(); got != 1000 {
		t.Errorf("second formula must still run: %v", got)
	}
}

func TestIterateUntilPrevious(t *testing.T) {
	// Paper §2: halve until the per-iteration change is <= 1, max 10 times.
	m := mustModel(t, `SELECT x, s FROM f SPREADSHEET DBY (x) MEA (s)
		ITERATE (10) UNTIL (PREVIOUS(s[1])-s[1] <= 1)
		( s[1] = s[1]/2 )`, nil)
	idx := run(t, m, []types.Row{R(1, 8.0)}, RunOptions{})
	// 8→4 (Δ4), →2 (Δ2), →1 (Δ1 ≤ 1: stop). Result 1.
	if got := cell(t, idx, 1)[1].Float(); got != 1 {
		t.Errorf("iterate/until = %v, want 1", got)
	}
	// Without UNTIL: exactly 10 halvings.
	m = mustModel(t, `SELECT x, s FROM f SPREADSHEET DBY (x) MEA (s) ITERATE (10)
		( s[1] = s[1]/2 )`, nil)
	idx = run(t, m, []types.Row{R(1, 1024.0)}, RunOptions{})
	if got := cell(t, idx, 1)[1].Float(); got != 1 {
		t.Errorf("iterate(10) = %v, want 1", got)
	}
}

// --- reference spreadsheets ---

// table1Ref is Table 1 of the paper: month → m_yago, m_qago.
func table1Ref() map[string][]types.Row {
	return map[string][]types.Row{
		"prior": {
			R("1999-01", "1998-01", "1998-10"),
			R("1999-02", "1998-02", "1998-11"),
			R("1999-03", "1998-03", "1998-12"),
		},
	}
}

func TestReferenceSheetLookup(t *testing.T) {
	// Query S1: ratio to year-ago and quarter-ago months.
	m := mustModel(t, `SELECT p, m, s, r_yago, r_qago FROM f
		SPREADSHEET
		  REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
		    DBY(m) MEA(m_yago, m_qago)
		  PBY(p) DBY (m) MEA (s, r_yago, r_qago)
		RULES UPDATE
		(
		  F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]],
		  F2: r_qago[*] = s[cv(m)] / s[m_qago[cv(m)]]
		)`, table1Ref())
	rows := []types.Row{
		R("dvd", "1999-01", 30.0, nil, nil),
		R("dvd", "1998-01", 10.0, nil, nil),
		R("dvd", "1998-10", 20.0, nil, nil),
	}
	idx := run(t, m, rows, RunOptions{})
	r99 := cell(t, idx, "dvd", "1999-01")
	if r99[3].Float() != 3 {
		t.Errorf("r_yago = %v, want 3", r99[3])
	}
	if r99[4].Float() != 1.5 {
		t.Errorf("r_qago = %v, want 1.5", r99[4])
	}
	// Months with no reference entry (1998-01 itself) divide by a missing
	// cell → NULL.
	r98 := cell(t, idx, "dvd", "1998-01")
	if !r98[3].IsNull() {
		t.Errorf("missing ref lookup must be NULL, got %v", r98[3])
	}
}

func TestReferenceMeasureConflicts(t *testing.T) {
	sc := mustClause(t, `SELECT p, m, s FROM f SPREADSHEET
		REFERENCE a ON (SELECT m, x FROM d1) DBY(m) MEA(x)
		REFERENCE b ON (SELECT m, x FROM d2) DBY(m) MEA(x)
		DBY (m) MEA (s)
		( s[1] = 1 )`)
	ws := types.NewSchemaNames("m", "s")
	refs := refMetaFor(t, sc, nil)
	if _, err := Compile(sc, ws, refs, nil); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("duplicate ref measures must fail: %v", err)
	}
}

// --- analysis: independence, rectangles, pruning ---

func TestIndependentDims(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		(
		F1: s['dvd',2000] = s['dvd',1999] + s['dvd',1997],
		F2: s['vcr',2000] = s['vcr',1998] + s['vcr',1999]
		)`, nil)
	ind := m.IndependentDims()
	if !ind[0] {
		t.Error("p must be independent")
	}
	if ind[1] {
		t.Error("t must not be independent")
	}
}

func TestFunctionallyIndependentDims(t *testing.T) {
	m := mustModel(t, `SELECT p, m, s, r_yago FROM f
		SPREADSHEET
		  REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt)
		    DBY(m) MEA(m_yago, m_qago)
		  PBY(p) DBY (m) MEA (s, r_yago)
		RULES UPDATE
		( F1: r_yago[*] = s[cv(m)] / s[m_yago[cv(m)]] )`, table1Ref())
	if ind := m.IndependentDims(); ind[0] {
		t.Error("m is not plainly independent (ref lookup)")
	}
	if find := m.FunctionallyIndependentDims(); !find[0] {
		t.Error("m must be functionally independent via the reference sheet")
	}
	refs := m.RefLookups("m")
	if len(refs) != 1 || refs[0].Measure != "m_yago" {
		t.Errorf("RefLookups = %v", refs)
	}
}

func TestSheetRect(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		(
		F1: s['dvd',2000] = s['dvd',1999] + s['dvd',1997],
		F2: s['vcr',2000] = s['vcr',1998] + s['vcr',1999]
		)`, nil)
	rect := m.SheetRect()
	// p ∈ {dvd, vcr}; t ∈ {2000, 1999, 1997, 1998}.
	if rect[0].All || len(rect[0].Vals) != 2 {
		t.Errorf("p bound = %+v", rect[0])
	}
	if rect[1].All || len(rect[1].Vals) != 4 {
		t.Errorf("t bound = %+v", rect[1])
	}
	if !rangeContains(rect[1], V(1997)) || rangeContains(rect[1], V(1990)) {
		t.Error("t bound contents wrong")
	}
}

func TestPruneFormulas(t *testing.T) {
	// Paper §4: outer filter p IN ('dvd','vcr','video') discards F3 ('tv').
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		(
		F1: s['dvd',2000] = s['dvd', 1999]*1.2,
		F2: s['vcr',2000] = s['vcr',1998] + s['vcr',1999],
		F3: s['tv', 2000] = avg(s)['tv', 1990<t<2000]
		)`, nil)
	outer := OuterInfo{DimBounds: Rect{
		{Vals: []types.Value{V("dvd"), V("vcr"), V("video")}},
		allBound(),
	}}
	pruned, _ := m.Prune(outer)
	if len(pruned) != 1 || pruned[0] != "f3" {
		t.Fatalf("pruned = %v, want [f3]", pruned)
	}
	if len(m.Rules) != 2 {
		t.Fatalf("rules left = %d", len(m.Rules))
	}
}

func TestPruneKeepsDependedFormulas(t *testing.T) {
	// With F4 depending on F3, F3 must survive even though 'tv' is filtered.
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
		(
		F3: s['tv', 2000] = avg(s)['tv', 1990<t<2000],
		F4: s['video',2000] = s['vcr',2000] + s['tv',2000]
		)`, nil)
	outer := OuterInfo{DimBounds: Rect{
		{Vals: []types.Value{V("dvd"), V("vcr"), V("video")}},
		allBound(),
	}}
	pruned, _ := m.Prune(outer)
	if len(pruned) != 0 {
		t.Fatalf("pruned = %v, want none", pruned)
	}
}

func TestPruneCascades(t *testing.T) {
	// F_a feeds F_b; both outside the filter: pruning F_b exposes F_a.
	m := mustModel(t, `SELECT p, t, s FROM f
		SPREADSHEET DBY (p, t) MEA (s) UPDATE
		(
		FA: s['tv', 1999] = 1,
		FB: s['tv', 2000] = s['tv', 1999] * 2
		)`, nil)
	outer := OuterInfo{DimBounds: Rect{{Vals: []types.Value{V("dvd")}}, allBound()}}
	pruned, _ := m.Prune(outer)
	if len(pruned) != 2 {
		t.Fatalf("pruned = %v, want both", pruned)
	}
}

func TestPruneByUnusedMeasure(t *testing.T) {
	m := mustModel(t, `SELECT p, t, s, c FROM f
		SPREADSHEET DBY (p, t) MEA (s, c) UPDATE
		( F1: c['tv', 2000] = 5, F2: s['tv', 2000] = 6 )`, nil)
	used := map[int]bool{m.MeasureOrdinal("s"): true}
	pruned, _ := m.Prune(OuterInfo{UsedMeasures: used})
	if len(pruned) != 1 || pruned[0] != "f1" {
		t.Fatalf("pruned = %v, want [f1]", pruned)
	}
}

func TestRewriteFormula(t *testing.T) {
	// Paper §4: F1: s[*,2002] = c[cv(p),2002]*2 with outer filter
	// p IN ('dvd','vcr') → left side restricted to those products.
	m := mustModel(t, `SELECT r, p, t, s, c FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s, c) UPDATE
		( F1: s[*, 2002] = c[cv(p), 2002]*2 )`, nil)
	outer := OuterInfo{DimBounds: Rect{
		{Vals: []types.Value{V("dvd"), V("vcr")}},
		allBound(), // t >= 2000 is a range; only finite sets rewrite
	}}
	pruned, rewritten := m.Prune(outer)
	if len(pruned) != 0 || len(rewritten) != 1 {
		t.Fatalf("pruned=%v rewritten=%v", pruned, rewritten)
	}
	// Execute: only dvd and vcr rows of 2002 get updated.
	rows := []types.Row{
		R("west", "dvd", 2002, 0.0, 5.0),
		R("west", "vcr", 2002, 0.0, 6.0),
		R("west", "tv", 2002, 99.0, 7.0),
	}
	idx := run(t, m, rows, RunOptions{})
	if got := cell(t, idx, "west", "dvd", 2002)[3].Float(); got != 10 {
		t.Errorf("dvd = %v", got)
	}
	if got := cell(t, idx, "west", "tv", 2002)[3].Float(); got != 99 {
		t.Errorf("tv must be skipped after rewrite: %v", got)
	}
}

// --- parallel execution ---

func TestParallelMatchesSerial(t *testing.T) {
	m1 := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		  s[*, 2003] = s[cv(p), 2002] * 1.2,
		  UPSERT s['video', 2002] = s['tv',2002] + s['vcr',2002]
		)`, nil)
	serial, _, err := m1.Run(fRows(), RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2 := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY (p, t) MEA (s)
		(
		  s[*, 2003] = s[cv(p), 2002] * 1.2,
		  UPSERT s['video', 2002] = s['tv',2002] + s['vcr',2002]
		)`, nil)
	par, _, err := m2.Run(fRows(), RunOptions{Parallel: 4, Ablate: Ablation{Buckets: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(par))
	}
	si, pi := indexRows(m1, serial), indexRows(m2, par)
	for k, sr := range si {
		pr, ok := pi[k]
		if !ok {
			t.Fatalf("parallel missing row %v", sr)
		}
		for c := range sr {
			if !types.Equal(sr[c], pr[c]) {
				t.Fatalf("mismatch at %v: %v vs %v", sr, sr[c], pr[c])
			}
		}
	}
}

// TestParallelErrorIsSerials: a rule that never converges fails in every
// bucket, each after its own number of iterations (the bound is the cell
// count of the bucket's first partition), so buckets fail at different
// times with different texts. The parallel run must report the serial run's
// error — the lowest bucket's — whichever PE fails first.
func TestParallelErrorIsSerials(t *testing.T) {
	var rows []types.Row
	for r := 0; r < 16; r++ {
		for ti := 0; ti <= r*37%150; ti++ {
			rows = append(rows, R(fmt.Sprintf("r%d", r), "dvd", ti, 1.0))
		}
	}
	runErr := func(pes int) string {
		m := mustModel(t, `SELECT r, p, t, s FROM f
			SPREADSHEET PBY(r) DBY (p, t) MEA (s)
			( s[*, *] = s[cv(p), cv(t)] + 1 )`, nil)
		_, _, err := m.Run(rows, RunOptions{Parallel: pes, Ablate: Ablation{Buckets: 8}})
		if err == nil {
			t.Fatal("a non-converging rule must fail")
		}
		return err.Error()
	}
	want := runErr(1)
	for i := 0; i < 50; i++ {
		if got := runErr(4); got != want {
			t.Fatalf("run %d at 4 PEs: %q, serial: %q", i, got, want)
		}
	}
}

func TestPromotedDimTriggerCondition(t *testing.T) {
	// Simulate the optimizer promoting p into the distribution key (S4):
	// working schema PBY(r, p) DBY(p, t) with p duplicated. The trigger
	// condition must stop partition (r, 'dvd') from upserting a 'vcr' row.
	m := mustModel(t, `SELECT r, p2, p, t, s FROM f
		SPREADSHEET PBY(r, p2) DBY (p, t) MEA (s)
		(
		F1: UPSERT s['dvd', 2002] = 1,
		F2: UPSERT s['vcr', 2002] = 2
		)`, nil)
	rows := []types.Row{
		R("west", "dvd", "dvd", 2000, 1.0),
		R("west", "vcr", "vcr", 2000, 2.0),
	}
	out, _, err := m.Run(rows, RunOptions{Promoted: []PromotedDim{{Pby: 1, Dby: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("rows = %d, want 4 (no spurious cross-partition upserts)", len(out))
	}
	for _, r := range out {
		if !types.Equal(r[1], r[2]) {
			t.Errorf("spurious row: %v", r)
		}
	}
}

// TestExistentialUpdateRuns: an existential UPDATE writes the cells its
// range covers and leaves the others alone.
func TestExistentialUpdateRuns(t *testing.T) {
	m := mustModel(t, `SELECT t, s FROM f SPREADSHEET DBY (t) MEA (s) UPDATE
		( s[t<2002] = 1 )`, nil)
	idx := run(t, m, []types.Row{R(2000, 9.0), R(2005, 9.0)}, RunOptions{})
	if cell(t, idx, 2000)[1].Float() != 1 || cell(t, idx, 2005)[1].Float() != 9 {
		t.Error("existential update wrong")
	}
}

func TestRangeProbeMatchesScan(t *testing.T) {
	// The integer-range unfolding (F1 transformation) must not change
	// results vs a plain scan.
	sql := `SELECT p, t, s FROM f SPREADSHEET DBY (p, t) MEA (s) UPDATE
		( s['tv',2002] = slope(s,t)['tv',1992<=t<=2001]*s['tv',2001] + s['tv',2001],
		  s['dvd',2002] = avg(s)['dvd', 1999<=t<=2001] )`
	var rows []types.Row
	for ti := 1992; ti <= 2002; ti++ {
		rows = append(rows, R("tv", ti, float64(ti%7)+1), R("dvd", ti, float64(ti%5)+1))
	}
	m1 := mustModel(t, sql, nil)
	r1, _, err := m1.Run(rows, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := mustModel(t, sql, nil)
	r2, _, err := m2.Run(rows, RunOptions{Ablate: Ablation{DisableRangeProbe: true}})
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := indexRows(m1, r1), indexRows(m2, r2)
	for k, a := range i1 {
		b := i2[k]
		for c := range a {
			if a[c].IsNull() != b[c].IsNull() || (!a[c].IsNull() && a[c].Float() != b[c].Float()) {
				t.Fatalf("probe/scan mismatch: %v vs %v", a, b)
			}
		}
	}
}
