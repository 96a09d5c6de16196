package exec

import (
	"slices"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

func dmlFixture(t *testing.T) (*catalog.Catalog, *catalog.Table) {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.Create("t", types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "c", Kind: types.KindString}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := tbl.Insert(types.Row{types.NewInt(int64(i)), types.NewString([]string{"x", "y", "z"}[i%3])}); err != nil {
			t.Fatal(err)
		}
	}
	cat.PublishAll()
	return cat, tbl
}

func whereOf(t *testing.T, sql string) sqlast.Expr {
	t.Helper()
	stmts, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmts[0].(*sqlast.DeleteStmt).Where
}

// TestDMLFindsRowsByKernel says which way UPDATE and DELETE find their rows:
// a predicate the scan kernels compile runs over the table image's columnar
// form; a subquery, an expression over a column, the ablation toggle and a
// table changed since its last Publish keep the per-row closure — and both
// ways name the same positions.
func TestDMLFindsRowsByKernel(t *testing.T) {
	cat, tbl := dmlFixture(t)
	bs := eval.FromSchema(tbl.Schema)
	cases := []struct {
		where    string
		byKernel bool
	}{
		{`c = 'y' AND a >= 10`, true},
		{`c IN ('x', 'z') OR a BETWEEN 3 AND 5`, true},
		{`c LIKE 'z%' AND a IS NOT NULL`, true},
		{`a % 7 < 3`, false},
		{`a + 1 > 20 AND c = 'x'`, false},
		{`a IN (SELECT a FROM t WHERE c = 'x')`, false},
		{`a > (SELECT MIN(a) FROM t) + 30`, false},
	}
	for _, tc := range cases {
		where := whereOf(t, `DELETE FROM t WHERE `+tc.where)
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers, Ablate: Ablation{MorselSize: 16}}
			pos, base, byKernel, err := New(cat, opts).matchRows(tbl, bs, where)
			if err != nil {
				t.Fatalf("%s: %v", tc.where, err)
			}
			if byKernel != tc.byKernel {
				t.Errorf("%s (workers %d): found by kernel = %v, want %v", tc.where, workers, byKernel, tc.byKernel)
			}
			if base != tbl.Img() {
				t.Errorf("%s: positions index %p, want the published image %p", tc.where, base, tbl.Img())
			}
			opts.Engine = core.Ablation{DisableVectorizedExec: true}
			ref, _, refKernel, err := New(cat, opts).matchRows(tbl, bs, where)
			if err != nil || refKernel {
				t.Fatalf("%s with vectorized execution off: by kernel = %v, err = %v", tc.where, refKernel, err)
			}
			if !slices.Equal(pos, ref) {
				t.Errorf("%s (workers %d): kernel finds %v, closure %v", tc.where, workers, pos, ref)
			}
		}
	}

	// Rows changed without a Publish: the image no longer is the table, so
	// the positions come from the master rows and index no image.
	if err := tbl.Insert(types.Row{types.NewInt(10), types.NewString("y")}); err != nil {
		t.Fatal(err)
	}
	pos, base, byKernel, err := New(cat, Options{}).matchRows(tbl, bs, whereOf(t, `DELETE FROM t WHERE a = 10`))
	if err != nil || byKernel || base != nil || !slices.Equal(pos, []int32{10, 40}) {
		t.Errorf("unpublished insert: pos %v base %p byKernel %v err %v; want [10 40] from the master rows", pos, base, byKernel, err)
	}
}

// TestNoOpDMLLeavesTableAlone: a DELETE or UPDATE that matches nothing must
// not swap the row slice, bump the version or cost the table its image (and
// with it the built columnar form).
func TestNoOpDMLLeavesTableAlone(t *testing.T) {
	for _, engine := range []core.Ablation{{}, {DisableVectorizedExec: true}} {
		cat, tbl := dmlFixture(t)
		im := tbl.Img()
		col := im.Columnar()
		rows, version := tbl.Rows, tbl.Version.Load()
		for _, sql := range []string{
			`DELETE FROM t WHERE a > 1000`, `DELETE FROM t WHERE a % 50 = 49`,
			`UPDATE t SET a = 0 WHERE c = 'nope'`, `UPDATE t SET c = 'q' WHERE a * 2 < 0`,
		} {
			stmts, err := parser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := New(cat, Options{Engine: engine}).ExecStatement(stmts[0])
			if err != nil || res.Rows[0][0].Int() != 0 {
				t.Fatalf("%s: %v rows, err %v", sql, res, err)
			}
			cat.PublishAll()
			if &tbl.Rows[0] != &rows[0] || len(tbl.Rows) != len(rows) || cap(tbl.Rows) != cap(rows) {
				t.Errorf("%s swapped the row slice", sql)
			}
			if tbl.Version.Load() != version {
				t.Errorf("%s bumped the version %d → %d", sql, version, tbl.Version.Load())
			}
			if tbl.Img() != im || tbl.Img().Columnar() != col {
				t.Errorf("%s republished the table", sql)
			}
		}
	}
}

// TestInsertIsAllOrNothing: a multi-row INSERT whose row k cannot be stored
// or computed, and an INSERT … SELECT that yields such a row, leave the table,
// its version and its image exactly as they were.
func TestInsertIsAllOrNothing(t *testing.T) {
	cat, tbl := dmlFixture(t)
	src, err := cat.Create("src", types.NewSchemaNames("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	src.Rows = []types.Row{
		{types.NewInt(1), types.NewString("ok")},
		{types.NewString("seven"), types.NewString("a is declared INT")},
	}
	cat.PublishAll()
	im, n, version := tbl.Img(), len(tbl.Rows), tbl.Version.Load()
	for _, sql := range []string{
		`INSERT INTO t VALUES (100, 'p'), (101, 'q'), ('seven', 'r'), (103, 's')`,
		`INSERT INTO t VALUES (100, 'p'), (1, 'q', 'one too many')`,
		`INSERT INTO t VALUES (100, 'p'), ('x' + 1, 'q')`,
		`INSERT INTO t SELECT a, c FROM src`,
	} {
		stmts, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(cat, Options{}).ExecStatement(stmts[0]); err == nil {
			t.Fatalf("%s: no error", sql)
		}
		cat.PublishAll()
		if len(tbl.Rows) != n || tbl.Version.Load() != version || tbl.Img() != im {
			t.Errorf("%s left %d rows at version %d (image republished: %v); want the %d rows at version %d untouched",
				sql, len(tbl.Rows), tbl.Version.Load(), tbl.Img() != im, n, version)
		}
	}
	// What does go in advances the version once per row.
	stmts, _ := parser.Parse(`INSERT INTO t VALUES (100, 'p'), (101, 'q'), (102, 'r')`)
	if _, err := New(cat, Options{}).ExecStatement(stmts[0]); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != n+3 || tbl.Version.Load() != version+3 {
		t.Errorf("3 rows inserted: %d rows at version %d, want %d at %d", len(tbl.Rows), tbl.Version.Load(), n+3, version+3)
	}
}
