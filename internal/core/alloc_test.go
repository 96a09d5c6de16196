package core

import (
	"fmt"
	"testing"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// TestFrameProbeDoesNotAllocate pins the allocation-free cell-probe
// contract: Lookup and WasPresent turn DBY values into ordinals and probe
// the frame's word table, and LookupBatch — over dictionary-coded and plain
// key columns alike — does the same a column at a time in the bucket's
// reused scratch (a dictionary's translation cached after its first batch):
// zero allocations per probe in steady state. Formula evaluation probes
// cells for every qualifier of every rule on every row, so an allocation
// here multiplies into GC pressure proportional to cells × rules.
func TestFrameProbeDoesNotAllocate(t *testing.T) {
	m := mustModel(t, `SELECT r, p, t, s FROM f
		SPREADSHEET PBY(r) DBY(p, t) MEA(s)
		( s['dvd', 2000] = 1 )`, nil)
	rows := []types.Row{
		R("west", "dvd", 2000, 10.0),
		R("west", "vcr", 2001, 20.0),
		R("west", "tv", 1999, 30.0),
		R("east", "dvd", 2000, 40.0),
	}
	ps, err := BuildPartitionsOpts(m, rows, 2, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	var frames []*Frame
	for _, b := range ps.Buckets() {
		frames = append(frames, b.frames...)
	}
	if len(frames) == 0 {
		t.Fatal("no frames built")
	}
	hit := []types.Value{V("dvd"), V(2000)}
	miss := []types.Value{V("laser"), V(1985)}
	pv, ts := []types.Value{V("dvd"), V("laser"), V("tv")}, []types.Value{V(2000), V(1985), V(1999)}
	dictKeys := []*colstore.Column{colstore.FromValues(pv, true), colstore.FromValues(ts, true)}
	plainKeys := []*colstore.Column{colstore.FromValues(pv, false), colstore.FromValues([]types.Value{V(2000.0), V(1985.0), V(1999.0)}, false)}
	sel := []int32{0, 1, 2}
	out := make([]int32, len(sel))
	probe := func() {
		for _, f := range frames {
			f.Lookup(hit)
			f.Lookup(miss)
			f.WasPresent(hit)
			f.WasPresent(miss)
			f.LookupBatch(dictKeys, sel, out)
			f.LookupBatch(plainKeys, sel, out)
		}
	}
	probe() // warm the buckets' scratch and dictionary translations
	if avg := testing.AllocsPerRun(200, probe); avg != 0 {
		t.Errorf("frame probes allocate %.2f times per run; want 0", avg)
	}
	for _, f := range frames {
		want := []int32{-1, -1, -1}
		if pos, ok := f.Lookup(hit); ok {
			want[0] = int32(pos)
		}
		if pos, ok := f.Lookup([]types.Value{V("tv"), V(1999)}); ok {
			want[2] = int32(pos)
		}
		for _, keys := range [][]*colstore.Column{dictKeys, plainKeys} {
			f.LookupBatch(keys, sel, out)
			if fmt.Sprint(out) != fmt.Sprint(want) {
				t.Errorf("frame %v: LookupBatch = %v, want %v", f.PBY(), out, want)
			}
		}
	}
}

// TestRepeatWriteDoesNotAllocate pins the write path's steady state: the
// first write to a measure gathers its column from the input into the
// bucket's vector, every later write — to that position or another, either
// measure — is in place and allocates nothing. A formula engine writes every
// cell of a partition once per rule, so an allocation here is cells × rules
// allocations per statement. The input is never written, and a measure no
// rule writes is never copied.
func TestRepeatWriteDoesNotAllocate(t *testing.T) {
	m := mustModel(t, `SELECT r, p, s, u, w FROM f
		SPREADSHEET PBY(r) DBY(p) MEA(s, u, w)
		( s['dvd'] = 1 )`, nil)
	rows := []types.Row{R("west", "dvd", 10.0, 1.0, 5.0), R("west", "vcr", 20.0, 2.0, 6.0)}
	ps, err := BuildPartitionsOpts(m, rows, 1, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	b := ps.Buckets()[0]
	f := b.frames[0]
	sCol, uCol := m.MeasureOrdinal("s"), m.MeasureOrdinal("u")
	f.SetMeasure(0, sCol, V(11.0)) // first writes: the column copies
	f.SetMeasure(0, uCol, V(12.0))
	f.MarkUpdated(0)
	n := 0
	write := func() {
		n++
		f.MarkUpdated(0)
		f.SetMeasure(0, sCol, types.NewFloat(float64(n)))
		f.SetMeasure(1, uCol, types.NewFloat(float64(-n)))
	}
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Errorf("repeat writes allocate %.2f times per run; want 0", avg)
	}
	if got := rowAt(f, 0); got[sCol].F != float64(n) || got[uCol].F != 12.0 {
		t.Errorf("row 0 after writes = %v", got)
	}
	if got := rowAt(f, 1); got[sCol].F != 20.0 || got[uCol].F != float64(-n) {
		t.Errorf("row 1 after writes = %v", got)
	}
	if rows[0][2].F != 10.0 || rows[0][3].F != 1.0 || rows[1][3].F != 2.0 {
		t.Errorf("writes reached the input rows: %v", rows)
	}
	if b.meas[2] != nil {
		t.Error("a measure no rule wrote was copied")
	}
}

// TestFrameWritesSurviveEviction writes one cell twice, and a second measure
// of the same row, with the row's block evicted between the writes under a
// tiny memory budget (sync and async spill): every write must go through the
// store, which marks the block dirty, or the value is lost when the block is
// dropped and reloaded. Found missing by a prototype of the in-place write
// path that skipped the store on the second write — with every other test
// still passing.
func TestFrameWritesSurviveEviction(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(map[bool]string{false: "sync", true: "async"}[async], func(t *testing.T) {
			m := mustModel(t, `SELECT r, p, s, u FROM f
				SPREADSHEET PBY(r) DBY(p) MEA(s, u)
				( s[1] = 1 )`, nil)
			var rows []types.Row
			for p := 0; p < 200; p++ {
				rows = append(rows, R("west", p, float64(p), 0.0))
			}
			var store *blockstore.SpillStore
			ps, err := BuildPartitionsOpts(m, rows, 1, func() blockstore.Store {
				store = blockstore.NewSpill(blockstore.Config{BudgetBytes: 800, RowsPerBlock: 4, Dir: t.TempDir(), Async: async})
				return store
			}, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			f := ps.Buckets()[0].frames[0]
			sCol, uCol := m.MeasureOrdinal("s"), m.MeasureOrdinal("u")
			pos, ok := f.Lookup([]types.Value{V(7)})
			if !ok {
				t.Fatal("cell 7 not found")
			}
			// A full scan walks every block through the budget and leaves the
			// target's block evicted (checked by the load count of the next
			// access).
			scan := func() {
				f.Each(nil, func(int, types.Row) bool { return true })
			}
			mustReload := func(step string, fn func()) {
				t.Helper()
				scan()
				before := store.Stats().BlockLoads
				fn()
				if store.Stats().BlockLoads == before {
					t.Fatalf("%s: the target's block was still resident; nothing was tested", step)
				}
			}
			mustReload("first write", func() { f.SetMeasure(pos, sCol, V(100.0)) })
			mustReload("second write", func() { f.SetMeasure(pos, sCol, V(200.0)) })
			mustReload("other measure", func() { f.SetMeasure(pos, uCol, V(300.0)) })
			mustReload("read back", func() {
				if got := rowAt(f, pos); got[sCol].F != 200.0 || got[uCol].F != 300.0 {
					t.Fatalf("row after writes and evictions = %v", got)
				}
			})
			for _, r := range ps.Rows(false) {
				wantS, wantU := float64(r[1].I), 0.0
				if r[1].I == 7 {
					wantS, wantU = 200.0, 300.0
				}
				if r[sCol].F != wantS || r[uCol].F != wantU {
					t.Fatalf("result row %v, want s=%v u=%v", r, wantS, wantU)
				}
			}
		})
	}
}
