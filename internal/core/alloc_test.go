package core

import (
	"testing"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/types"
)

// TestFrameProbeDoesNotAllocate pins the allocation-free cell-probe
// contract: once a frame's key scratch buffer has warmed up, Lookup and
// WasPresent encode the DBY key into the reused buffer and probe the hash
// index via the no-alloc string(key) map-access idiom — zero allocations
// per probe in steady state. Formula evaluation probes cells for every
// qualifier of every rule on every row, so an allocation here multiplies
// into GC pressure proportional to cells × rules.
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
	ps, err := BuildPartitionsOpts(m, rows, 2, func() blockstore.Store { return blockstore.NewMem() }, BuildOptions{})
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
	probe := func() {
		for _, f := range frames {
			f.Lookup(hit)
			f.Lookup(miss)
			f.WasPresent(hit)
			f.WasPresent(miss)
		}
	}
	probe() // warm the per-frame key scratch buffers
	if avg := testing.AllocsPerRun(200, probe); avg != 0 {
		t.Errorf("frame probes allocate %.2f times per run; want 0", avg)
	}
}

// TestRepeatWriteDoesNotAllocate pins the write path's steady state: the
// first write to a shared row copies it into the store's arena, every later
// write to that position — either measure — is in place and allocates
// nothing. A formula engine writes every cell of a partition once per rule,
// so an allocation here is cells × rules allocations per statement.
func TestRepeatWriteDoesNotAllocate(t *testing.T) {
	m := mustModel(t, `SELECT r, p, s, u FROM f
		SPREADSHEET PBY(r) DBY(p) MEA(s, u)
		( s['dvd'] = 1 )`, nil)
	rows := []types.Row{R("west", "dvd", 10.0, 1.0), R("west", "vcr", 20.0, 2.0)}
	ps, err := BuildPartitionsOpts(m, rows, 1, func() blockstore.Store { return blockstore.NewMem() }, BuildOptions{ShareRows: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	f := ps.Buckets()[0].frames[0]
	sCol, uCol := m.MeasureOrdinal("s"), m.MeasureOrdinal("u")
	f.SetMeasure(0, sCol, V(11.0)) // first write: the copy
	f.MarkUpdated(0)
	n := 0
	write := func() {
		n++
		f.MarkUpdated(0)
		f.SetMeasure(0, sCol, types.NewFloat(float64(n)))
		f.SetMeasure(0, uCol, types.NewFloat(float64(-n)))
	}
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Errorf("repeat writes allocate %.2f times per run; want 0", avg)
	}
	if got := f.Row(0); got[sCol].F != float64(n) || got[uCol].F != float64(-n) {
		t.Errorf("row after writes = %v", got)
	}
	if rows[0][2].F != 10.0 || rows[0][3].F != 1.0 {
		t.Errorf("writes reached the shared input row: %v", rows[0])
	}
	if &f.Row(1)[0] != &rows[1][0] {
		t.Error("a row no rule wrote was copied")
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
				f.Each(func(int, types.Row) bool { return true })
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
				if got := f.Row(pos); got[sCol].F != 200.0 || got[uCol].F != 300.0 {
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
