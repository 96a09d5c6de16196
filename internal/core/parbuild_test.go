package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

func buildTestModel(tb testing.TB) *Model {
	tb.Helper()
	sql := `SELECT r, p, t, s, c FROM f
		SPREADSHEET PBY (r, p) DBY (t) MEA (s, c)
		( s[1] = s[2] )`
	q, err := parser.ParseQuery(sql)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	sc := q.Query.(*sqlast.SelectBody).Spreadsheet
	m, err := Compile(sc, types.NewSchema(
		types.Column{Name: "r", Kind: types.KindString}, types.Column{Name: "p", Kind: types.KindInt},
		types.Column{Name: "t", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindFloat},
		types.Column{Name: "c", Kind: types.KindInt},
	), nil, nil)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return m
}

// buildTestRows generates rows with enough PBY skew to exercise frames of
// very different sizes and several rows per frame.
func buildTestRows(n int, seed int64) []types.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, 0, n)
	used := make(map[string]bool)
	for len(rows) < n {
		reg := fmt.Sprintf("reg%d", rng.Intn(7))
		prod := rng.Intn(11)
		tdim := rng.Intn(800)
		k := fmt.Sprintf("%s|%d|%d", reg, prod, tdim)
		if used[k] { // DBY must be unique within a partition
			continue
		}
		used[k] = true
		rows = append(rows, R(reg, prod, tdim, float64(rng.Intn(1000)), rng.Intn(50)))
	}
	return rows
}

// rowAt is the row at pos, boxed into a fresh row.
func rowAt(f *Frame, pos int) types.Row { return f.Row(pos, make(types.Row, f.b.m.Schema.Len())) }

// samePartitionSet asserts two access structures are byte-identical:
// same bucketing, frame discovery order, row clustering, index contents and
// built lengths.
func samePartitionSet(t *testing.T, a, b *PartitionSet) {
	t.Helper()
	if len(a.buckets) != len(b.buckets) {
		t.Fatalf("bucket count %d vs %d", len(a.buckets), len(b.buckets))
	}
	for bi := range a.buckets {
		ba, bb := a.buckets[bi], b.buckets[bi]
		if len(ba.frames) != len(bb.frames) {
			t.Fatalf("bucket %d: frame count %d vs %d", bi, len(ba.frames), len(bb.frames))
		}
		for fi := range ba.frames {
			fa, fb := ba.frames[fi], bb.frames[fi]
			if ka, kb := types.Key(fa.pby...), types.Key(fb.pby...); ka != kb {
				t.Fatalf("bucket %d frame %d: pby %q vs %q", bi, fi, ka, kb)
			}
			if fa.Len() != fb.Len() {
				t.Fatalf("bucket %d frame %d: len %d vs %d", bi, fi, fa.Len(), fb.Len())
			}
			if fa.builtLen != fb.builtLen || fa.builtLen != fa.Len() {
				t.Fatalf("bucket %d frame %d: builtLen %d vs %d, len %d", bi, fi, fa.builtLen, fb.builtLen, fa.Len())
			}
			m := a.model
			for pos := 0; pos < fa.Len(); pos++ {
				ra, rb := rowAt(fa, pos), rowAt(fb, pos)
				if types.Key(ra...) != types.Key(rb...) {
					t.Fatalf("bucket %d frame %d pos %d: %v vs %v", bi, fi, pos, ra, rb)
				}
				dims := ra[m.NPby : m.NPby+m.NDby]
				pa, oka := fa.Lookup(dims)
				pb, okb := fb.Lookup(dims)
				if !oka || !okb || pa != pos || pb != pos {
					t.Fatalf("bucket %d frame %d: index disagrees on %v: (%d,%v) vs (%d,%v), want %d",
						bi, fi, dims, pa, oka, pb, okb, pos)
				}
			}
		}
	}
}

// TestParallelBuildMatchesSerial checks that the morsel-partitioned build is
// byte-identical to the serial build across worker counts and bucket counts,
// including chunk boundaries (row counts straddling buildMorsel).
func TestParallelBuildMatchesSerial(t *testing.T) {
	m := buildTestModel(t)
	var mem StoreFactory // nil: measure vectors, no row store
	for _, n := range []int{0, 1, 100, buildMorsel - 1, buildMorsel + 37} {
		rows := buildTestRows(n, int64(n)+1)
		for _, nb := range []int{1, 4, 13} {
			serial, err := BuildPartitionsOpts(m, rows, nb, mem, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				par, err := BuildPartitionsOpts(m, rows, nb, mem, BuildOptions{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				samePartitionSet(t, serial, par)
				par.Close()
			}
			serial.Close()
		}
	}
}

// TestParallelBuildDuplicateError checks the parallel build reports the same
// duplicate-DBY error the serial build does, from the lowest bucket index.
func TestParallelBuildDuplicateError(t *testing.T) {
	m := buildTestModel(t)
	var mem StoreFactory // nil: measure vectors, no row store
	rows := buildTestRows(500, 3)
	rows = append(rows, rows[123].Clone()) // exact duplicate partition+dims
	serial, serr := BuildPartitionsOpts(m, rows, 8, mem, BuildOptions{Workers: 1})
	if serr == nil {
		serial.Close()
		t.Fatal("expected duplicate error from serial build")
	}
	par, perr := BuildPartitionsOpts(m, rows, 8, mem, BuildOptions{Workers: 8})
	if perr == nil {
		par.Close()
		t.Fatal("expected duplicate error from parallel build")
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error mismatch:\n serial: %v\n parallel: %v", serr, perr)
	}
}

// TestBuildWithoutRowsNeedsEveryColumn checks a build given no rows refuses
// an image that leaves a working column uncovered (short, or with a nil
// entry) instead of reading the missing rows later.
func TestBuildWithoutRowsNeedsEveryColumn(t *testing.T) {
	m := buildTestModel(t)
	rows := buildTestRows(50, 5)
	col := func(ord int) *colstore.Column {
		vals := make([]types.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[ord]
		}
		return colstore.FromValues(vals, false)
	}
	full := []*colstore.Column{col(0), col(1), col(2), col(3), col(4)}
	for name, cols := range map[string][]*colstore.Column{
		"short": full[:3],
		"nil":   {full[0], full[1], full[2], nil, full[4]},
	} {
		if ps, err := BuildPartitionsOpts(m, nil, 4, nil, BuildOptions{Cols: &ColSource{Cols: cols}}); err == nil {
			ps.Close()
			t.Errorf("%s: built without rows for an uncovered column", name)
		}
	}
	ps, err := BuildPartitionsOpts(m, nil, 4, nil, BuildOptions{Cols: &ColSource{Cols: full}})
	if err != nil {
		t.Fatalf("full image: %v", err)
	}
	ps.Close()
}

// TestEstimateBytesCountsInputRows checks a structure built over boxed
// input rows counts them, string payloads included: a cached structure keeps
// them alive.
func TestEstimateBytesCountsInputRows(t *testing.T) {
	m := buildTestModel(t)
	rows := buildTestRows(300, 9)
	var want int64
	for _, r := range rows {
		r[0] = types.NewString(r[0].S + strings.Repeat("x", 1000))
		want += blockstore.RowBytes(r)
	}
	ps, err := BuildPartitionsOpts(m, rows, 4, nil, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if got := ps.EstimateBytes(); got < want {
		t.Fatalf("EstimateBytes = %d, below the input rows' %d", got, want)
	}
}

func BenchmarkParallelBuild(b *testing.B) {
	m := buildTestModel(b)
	rows := buildTestRows(20000, 42)
	var mem StoreFactory // nil: measure vectors, no row store
	// -cpu sets GOMAXPROCS per run; scale the build workers with it so
	// `-cpu 1,4` compares serial vs parallel build.
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := BuildPartitionsOpts(m, rows, 16, mem, BuildOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		ps.Close()
	}
}

// TestBuildBytesFollowFrames pins what one build allocates per input row
// when a chunk of 4,096 rows holds a few dozen frames: each chunk's frame
// table grows with the frames it finds instead of taking two slots per row
// (128 KB a chunk, 114 bytes per row in all), so the build stays near the
// per-row arrays it needs (words, frame numbers, positions, the frames'
// cell tables): 85 bytes per row.
func TestBuildBytesFollowFrames(t *testing.T) {
	m := buildTestModel(t)
	rows := buildTestRows(16384, 3)
	build := func() {
		ps, err := BuildPartitionsOpts(m, rows, 1, nil, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ps.Close()
	}
	build()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(rows))
	t.Logf("%.1f bytes per input row", perRow)
	if perRow > 100 {
		t.Errorf("a build allocates %.1f bytes per input row; want at most 100", perRow)
	}
}
