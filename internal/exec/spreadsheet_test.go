package exec

import (
	"runtime"
	"strconv"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// TestSheetBoxesNoInputRow: a spreadsheet whose input has an image reads its
// keys and unwritten measures from that image, so doubling the input adds
// neither an allocation nor a boxed row's bytes (eight values, 320 bytes)
// per added row: the frames hold input positions and the one written
// measure's vector, and the GROUP BY above reads the output image.
func TestSheetBoxesNoInputRow(t *testing.T) {
	const q = `SELECT c, SUM(u), COUNT(*) FROM (SELECT c, p, t, s, a, b, d, u FROM w
		SPREADSHEET PBY (c) DBY (p, t) MEA (s, a, b, d, 0 u) (UPDATE u[*, *] = s[cv(p), cv(t)] * 2)) v GROUP BY c`
	measure := func(n int) (allocs, bytes float64) {
		cat := catalog.New()
		tbl, err := cat.Create("w", types.NewSchema(
			types.Column{Name: "c", Kind: types.KindString}, types.Column{Name: "p", Kind: types.KindInt},
			types.Column{Name: "t", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindFloat},
			types.Column{Name: "a", Kind: types.KindFloat}, types.Column{Name: "b", Kind: types.KindFloat},
			types.Column{Name: "d", Kind: types.KindFloat}))
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewString("c" + strconv.Itoa(i%4)), types.NewInt(int64(i / 4 % 50)), types.NewInt(int64(i / 200)),
				types.NewFloat(float64(i)), types.NewFloat(1), types.NewFloat(2), types.NewFloat(3)}
		}
		if err := tbl.Insert(rows...); err != nil {
			t.Fatal(err)
		}
		cat.PublishAll()
		stmts, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		run := func() *Executor {
			ex := New(cat, Options{Workers: 1})
			ex.Opts.PlanOpts = &plan.Options{Exec: ex}
			if _, err := ex.ExecStatement(stmts[0]); err != nil {
				t.Fatal(err)
			}
			return ex
		}
		if note := opNote(run(), "spreadsheet"); note == "" || note[len(note)-len("out=image"):] != "out=image" {
			t.Fatalf("spreadsheet line %q, want out=image", note)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	a1, b1 := measure(4000)
	a2, b2 := measure(8000)
	if per := (a2 - a1) / 4000; per >= 1 {
		t.Errorf("allocations grow %.2f per input row (%.0f → %.0f)", per, a1, a2)
	}
	if per := (b2 - b1) / 4000; per >= 8*40 {
		t.Errorf("bytes grow %.0f per input row (%.0f → %.0f), a boxed row's worth", per, b1, b2)
	}
	t.Logf("allocations %.0f → %.0f, bytes %.0f → %.0f", a1, a2, b1, b2)
}
