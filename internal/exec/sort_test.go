package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// TestSortedPermStableAndSorted checks the chunked parallel sort against the
// definition of a stable sort: output sorted by key, ties in input order,
// and identical across worker counts and morsel thresholds (Workers: 1 is
// the one whole-input sort the others must reproduce).
func TestSortedPermStableAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 160, 1000} {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(7) // heavy duplication exercises stability
		}
		cmp := func(a, b int) int { return keys[a] - keys[b] }
		ref := New(nil, Options{Ablate: Ablation{MorselSize: 8}, Workers: 1}).
			sortedPerm("sort", n, cmp)
		for _, w := range []int{2, 8} {
			ex := New(nil, Options{Ablate: Ablation{MorselSize: 8}, Workers: w})
			perm := ex.sortedPerm("sort", n, cmp)
			if len(perm) != n {
				t.Fatalf("n=%d w=%d: len %d", n, w, len(perm))
			}
			for i := range perm {
				if perm[i] != ref[i] {
					t.Fatalf("n=%d w=%d: perm[%d]=%d, serial has %d", n, w, i, perm[i], ref[i])
				}
			}
		}
		// The serial reference itself must be a stable sort.
		seen := make([]bool, n)
		for i, p := range ref {
			seen[p] = true
			if i > 0 {
				if keys[ref[i-1]] > keys[p] {
					t.Fatalf("n=%d: not sorted at %d", n, i)
				}
				if keys[ref[i-1]] == keys[p] && ref[i-1] > p {
					t.Fatalf("n=%d: unstable at %d", n, i)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: index %d missing from permutation", n, i)
			}
		}
	}
}

// sortEnv runs statements with one executor configuration per statement.
func sortEnv(t testing.TB) (func(opts Options, sql string) (*Result, error), *catalog.Catalog) {
	t.Helper()
	cat := catalog.New()
	run := func(opts Options, sql string) (*Result, error) {
		stmts, err := parser.Parse(sql)
		if err != nil {
			return nil, err
		}
		var last *Result
		for _, s := range stmts {
			ex := New(cat, opts)
			ex.Opts.PlanOpts = &plan.Options{Exec: ex}
			last, err = ex.ExecStatement(s)
			cat.PublishAll() // as the database does after every statement
			if err != nil {
				return nil, err
			}
		}
		return last, nil
	}
	return run, cat
}

func fillSortTable(t testing.TB, run func(Options, string) (*Result, error), n int) {
	t.Helper()
	if _, err := run(Options{}, `CREATE TABLE t (a INT, b FLOAT, c TEXT)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for lo := 0; lo < n; lo += 100 {
		var sb []byte
		sb = append(sb, "INSERT INTO t VALUES "...)
		for i := lo; i < lo+100 && i < n; i++ {
			if i > lo {
				sb = append(sb, ',')
			}
			b := "NULL"
			if rng.Intn(12) != 0 {
				b = fmt.Sprintf("%.6f", rng.NormFloat64()*50)
			}
			sb = append(sb, fmt.Sprintf("(%d, %s, 'c%02d')", rng.Intn(40), b, rng.Intn(9))...)
		}
		if _, err := run(Options{}, string(sb)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecSortConfigsAgree runs ORDER BY under every data-movement
// configuration — serial, parallel, external (async and sync spill, serial
// and parallel run sorting) — and requires byte-identical rows.
func TestExecSortConfigsAgree(t *testing.T) {
	run, _ := sortEnv(t)
	fillSortTable(t, run, 700)
	queries := []string{
		`SELECT a, b, c FROM t ORDER BY b DESC, a`,
		`SELECT a, b, c FROM t ORDER BY c, b`,
		`SELECT a, b, c FROM t ORDER BY a`, // duplicate-heavy: stability visible
	}
	configs := []Options{
		{Workers: 1, Ablate: Ablation{MorselSize: 16}},
		{Workers: 8, Ablate: Ablation{MorselSize: 16}},
		{Workers: 8, Ablate: Ablation{MorselSize: 16}, MemoryBudget: 2048},
		{Workers: 8, Ablate: Ablation{MorselSize: 16, DisableAsyncSpill: true}, MemoryBudget: 2048},
		{Workers: 1, Ablate: Ablation{MorselSize: 16}, MemoryBudget: 2048},
	}
	for _, q := range queries {
		var ref []string
		for ci, opts := range configs {
			res, err := run(opts, q)
			if err != nil {
				t.Fatalf("config %d: %v\n%s", ci, err, q)
			}
			got := make([]string, len(res.Rows))
			for i, r := range res.Rows {
				got[i] = types.Key(r...)
			}
			if ci == 0 {
				ref = got
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("config %d: %d rows, serial has %d\n%s", ci, len(got), len(ref), q)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("config %d row %d differs from serial\n%s", ci, i, q)
				}
			}
		}
	}
}

// TestExternalSortSpills confirms the budgeted path actually moves rows
// through the spill store (otherwise TestExecSortConfigsAgree would be
// vacuously comparing in-memory sorts).
func TestExternalSortSpills(t *testing.T) {
	run, cat := sortEnv(t)
	fillSortTable(t, run, 700)
	ex := New(cat, Options{Workers: 4, Ablate: Ablation{MorselSize: 16}, MemoryBudget: 2048})
	ex.Opts.PlanOpts = &plan.Options{Exec: ex}
	stmt, err := parser.ParseQuery(`SELECT a, b, c FROM t ORDER BY b, c`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExecStatement(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 700 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if ex.SheetStats.BytesSpilled == 0 {
		t.Error("external sort reported no spilled bytes; the budgeted path did not engage")
	}
	found := false
	for _, op := range ex.ExecStats.Ops {
		if op.Op == "sort-spill" && op.Rows == 700 && op.Morsels > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("no sort-spill operator stat recorded: %+v", ex.ExecStats.Ops)
	}
}

// TestSortKeyExtractionAllocs pins ORDER BY's per-row allocation behaviour:
// sort keys live in one flat array, so executing the Sort node allocates
// O(runs + workers), not O(rows). The former per-row key slices alone would
// blow this bound by two orders of magnitude.
func TestSortKeyExtractionAllocs(t *testing.T) {
	run, cat := sortEnv(t)
	if _, err := run(Options{}, `CREATE TABLE t (a INT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for lo := 0; lo < n; lo += 500 {
		sql := "INSERT INTO t VALUES "
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sql += ","
			}
			sql += fmt.Sprintf("(%d, %d.5)", i%97, (i*31)%89)
		}
		if _, err := run(Options{}, sql); err != nil {
			t.Fatal(err)
		}
	}
	ex := New(cat, Options{Ablate: Ablation{MorselSize: 256}, Workers: 2})
	ex.Opts.PlanOpts = &plan.Options{Exec: ex}
	buildPlan := func(sql string) plan.Node {
		q, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		node, err := plan.Build(cat, q, ex.Opts.PlanOpts)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	sorted := buildPlan(`SELECT a, b FROM t ORDER BY a, b DESC`)
	if _, ok := sorted.(*plan.Sort); !ok {
		t.Fatalf("plan root is %T, want *plan.Sort", sorted)
	}
	unsorted := buildPlan(`SELECT a, b FROM t`)
	measure := func(node plan.Node) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := ex.Execute(node, nil)
			if err != nil || len(res.Rows) != n {
				t.Fatalf("got %d rows, err %v; want %d", len(res.Rows), err, n)
			}
		})
	}
	// The projection beneath the sort allocates one output row per input
	// row; subtracting the unsorted plan isolates the Sort node itself.
	delta := measure(sorted) - measure(unsorted)
	// Flat keys + permutation + run sorting + merge: small and independent
	// of the row count. 200 leaves headroom while still catching any
	// per-row regression (the former per-row key slices cost n = 4000).
	if delta > 200 {
		t.Errorf("Sort node over %d rows adds %.0f allocations per execution; want O(runs), not O(rows)", n, delta)
	}
}
