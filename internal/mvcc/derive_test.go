package mvcc_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/types"
)

// The tests in this file hold a derived columnar form to its definition:
// whatever chain of appends, UPDATEs and DELETEs led to an image, and
// whichever of its ancestors and descendants were demanded first, its
// columnar form must answer like colstore.FromRows of its own rows.

// sheet drives a catalog table the way the statement executors do and pins
// every image it publishes.
type sheet struct {
	cat  *catalog.Catalog
	tbl  *catalog.Table
	pins []pin
	// intro lists every string stored so far, in order of first appearance;
	// a pin remembers how many existed when it was published.
	intro map[string]int
}

type pin struct {
	im      *mvcc.Image
	strings int
}

var sheetCols = []string{"k", "g", "n", "f", "m", "z"}

func newSheet(t *testing.T) *sheet {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.Create("t", types.NewSchemaNames(sheetCols...))
	if err != nil {
		t.Fatal(err)
	}
	// Room up front: an append that reallocates the master slice proves
	// nothing and costs the next image its lineage, which is not under test.
	tbl.Rows = make([]types.Row, 0, 4096)
	return &sheet{cat: cat, tbl: tbl, intro: map[string]int{}}
}

func (s *sheet) note(rows ...types.Row) {
	for _, r := range rows {
		for _, v := range r {
			if v.K == types.KindString {
				if _, ok := s.intro[v.S]; !ok {
					s.intro[v.S] = len(s.intro)
				}
			}
		}
	}
}

func (s *sheet) publish() *mvcc.Image {
	s.tbl.Publish()
	im := s.tbl.Img()
	s.pins = append(s.pins, pin{im, len(s.intro)})
	return im
}

func (s *sheet) insert(t *testing.T, rows ...types.Row) {
	t.Helper()
	s.note(rows...)
	if err := s.tbl.Insert(rows...); err != nil {
		t.Fatal(err)
	}
	s.publish()
}

// update rewrites columns cols of the rows at pos, as execUpdate does.
func (s *sheet) update(t *testing.T, pos []int32, cols []int, val func(p int32, ci int) types.Value) {
	t.Helper()
	old := s.tbl.Rows
	next := append(make([]types.Row, 0, cap(old)), old...)
	for _, p := range pos {
		nr := old[p].Clone()
		for _, ci := range cols {
			nr[ci] = val(p, ci)
		}
		s.note(nr)
		next[p] = nr
	}
	if err := s.tbl.Replace(&mvcc.Delta{From: s.tbl.Img(), Rows: next, Patched: pos, Cols: cols}); err != nil {
		t.Fatal(err)
	}
	s.publish()
}

// remove keeps the rows at kept, as execDelete does.
func (s *sheet) remove(kept []int32) {
	old := s.tbl.Rows
	next := make([]types.Row, 0, len(kept)+cap(old)-len(old))
	for _, p := range kept {
		next = append(next, old[p])
	}
	if err := s.tbl.Replace(&mvcc.Delta{From: s.tbl.Img(), Rows: next, Kept: kept}); err != nil {
		panic(err) // a DELETE converts nothing
	}
	s.publish()
}

// gen makes one row. phase unlocks what arrives late: NULLs in g and n (1),
// integral FLOATs in the INT column m and INTs in the FLOAT column f, which
// the catalog stores in the column's kind (2), integers in the so far
// all-NULL column z (3).
func gen(r *rand.Rand, phase, step int) types.Row {
	floats := []float64{0, 1, -1, 0.5, 2.25, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300}
	row := types.Row{
		types.NewString(fmt.Sprintf("a%d", r.Intn(4+step/8))),
		types.NewString(fmt.Sprintf("b%d", r.Intn(6))),
		types.NewInt(int64(r.Intn(12))),
		types.NewFloat(floats[r.Intn(len(floats))]),
		types.NewInt(int64(r.Intn(5))),
		types.Null,
	}
	if phase >= 1 && r.Intn(4) == 0 {
		row[1] = types.Null
	}
	if phase >= 1 && r.Intn(5) == 0 {
		row[2] = types.Null
	}
	if phase >= 2 && r.Intn(3) == 0 {
		row[4] = types.NewFloat(float64(r.Intn(5)))
		row[3] = types.NewInt(int64(r.Intn(3)))
	}
	if phase >= 3 && r.Intn(2) == 0 {
		row[5] = types.NewInt(int64(r.Intn(3)))
	}
	return row
}

var probePreds = []string{
	"k = 'a3'", "k <> 'a1'", "k IN ('a1', 'zz', 'a7', 'fresh3')", "k LIKE 'a1%'", "k LIKE 'fresh%'",
	"g IS NULL", "g IS NOT NULL", "g IN ('b1', 'b4')", "NOT (k = 'a1' OR g LIKE '%1')",
	"n > 5", "n IS NULL", "f >= 0.5", "m = 3", "m = 'm'", "z IS NULL", "z = 1",
}

func probeKernels(t *testing.T) []eval.SelKernel {
	t.Helper()
	bs := eval.FromSchema(types.NewSchemaNames(sheetCols...))
	ks := make([]eval.SelKernel, len(probePreds))
	for i, src := range probePreds {
		e, err := parser.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		if ks[i] = eval.CompileSelKernel(bs, e); !ks[i].Valid() {
			t.Fatalf("%s: no kernel", src)
		}
	}
	return ks
}

func sameValue(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// checkImage compares p's columnar form with FromRows of p's rows.
func (s *sheet) checkImage(t *testing.T, label string, p pin, kernels []eval.SelKernel) {
	t.Helper()
	rows := p.im.Rows
	got, want := p.im.Columnar(), colstore.FromRows(len(sheetCols), rows)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: derived image nil=%v, rebuilt nil=%v", label, got == nil, want == nil)
	}
	if want == nil {
		return
	}
	if got.NRows != len(rows) || len(got.Rows) != len(rows) || (len(rows) > 0 && &got.Rows[0] != &rows[0]) {
		t.Fatalf("%s: image of %d rows (Rows %d), want the image's own %d rows", label, got.NRows, len(got.Rows), len(rows))
	}
	var gk, wk []byte
	for ci, gc := range got.Cols {
		wc := want.Cols[ci]
		if gc.Len() != len(rows) {
			t.Fatalf("%s col %s: %d slots for %d rows", label, sheetCols[ci], gc.Len(), len(rows))
		}
		for i, row := range rows {
			if gc.IsNull(i) != wc.IsNull(i) {
				t.Fatalf("%s col %s row %d: IsNull %v, rebuilt says %v", label, sheetCols[ci], i, gc.IsNull(i), wc.IsNull(i))
			}
			if v := gc.Value(i); !sameValue(v, row[ci]) || !sameValue(v, wc.Value(i)) {
				t.Fatalf("%s col %s row %d: Value %#v, row holds %#v, rebuilt says %#v", label, sheetCols[ci], i, v, row[ci], wc.Value(i))
			}
			gk, wk = gc.AppendKey(gk[:0], i), wc.AppendKey(wk[:0], i)
			if !bytes.Equal(gk, wk) {
				t.Fatalf("%s col %s row %d: key %x, rebuilt %x", label, sheetCols[ci], i, gk, wk)
			}
		}
		if !gc.IsDict() {
			continue
		}
		// A view's dictionary holds nothing a later version introduced, and
		// DictCode answers within it.
		for code, str := range gc.Dict {
			if at, ok := s.intro[str]; !ok || at >= p.strings {
				t.Fatalf("%s col %s: dictionary entry %d %q belongs to a later version", label, sheetCols[ci], code, str)
			}
		}
		for str := range s.intro {
			code, ok := gc.DictCode(str)
			if ok && (int(code) >= len(gc.Dict) || gc.Dict[code] != str) {
				t.Fatalf("%s col %s: DictCode(%q) = %d outside the view's %d entries or naming another string", label, sheetCols[ci], str, code, len(gc.Dict))
			}
			if _, inRebuilt := wc.DictCode(str); inRebuilt && !ok {
				t.Fatalf("%s col %s: DictCode(%q) missing though a row holds it", label, sheetCols[ci], str)
			}
		}
	}
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	for ki, k := range kernels {
		g := k.Run(got, nil, nil, sel, make([]int32, 0, len(sel)))
		w := k.Run(want, nil, nil, sel, make([]int32, 0, len(sel)))
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: kernel %q selects %v, over the rebuilt image %v", label, probePreds[ki], g, w)
		}
	}
}

func somePositions(r *rand.Rand, n int, keep float64) []int32 {
	pos := []int32{}
	for i := 0; i < n; i++ {
		if r.Float64() < keep {
			pos = append(pos, int32(i))
		}
	}
	return pos
}

// TestDerivedEqualsRebuilt runs random sequences of appends, UPDATEs and
// DELETEs, demanding columnar forms at random moments, and then checks every
// version ever published — after all later versions exist — in shuffled order.
func TestDerivedEqualsRebuilt(t *testing.T) {
	kernels := probeKernels(t)
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := newSheet(t)
		const steps = 120
		for step := 0; step < steps; step++ {
			phase := 0
			switch {
			case step > 90:
				phase = 3
			case step > 60:
				phase = 2
			case step > 30:
				phase = 1
			}
			n := len(s.tbl.Rows)
			switch op := r.Intn(10); {
			case op < 6 || n == 0:
				rows := make([]types.Row, 1+r.Intn(5))
				for i := range rows {
					rows[i] = gen(r, phase, step)
				}
				s.insert(t, rows...)
			case op < 8:
				// SET one to three columns, sometimes to a string no row has
				// held yet, sometimes (late) to NULL or to a value the column
				// stores converted.
				cols := []int{[]int{0, 1, 2, 3, 4, 5}[r.Intn(6)]}
				if r.Intn(2) == 0 {
					cols = append(cols, (cols[0]+1+r.Intn(5))%6)
				}
				pos := somePositions(r, n, []float64{0, 0.1, 0.5, 1}[r.Intn(4)])
				if len(pos) == 0 {
					continue
				}
				fresh := types.NewString(fmt.Sprintf("fresh%d", step))
				s.update(t, pos, cols, func(p int32, ci int) types.Value {
					if ci <= 1 && r.Intn(3) == 0 {
						return fresh
					}
					return gen(r, phase, step)[ci]
				})
			default:
				// DELETE some, none or all of the rows.
				s.remove(somePositions(r, n, []float64{0, 0.5, 0.9, 1, 1}[r.Intn(5)]))
			}
			if r.Intn(2) == 0 {
				s.pins[len(s.pins)-1].im.Columnar()
			}
			if r.Intn(8) == 0 {
				s.pins[r.Intn(len(s.pins))].im.Columnar()
			}
		}
		for _, i := range r.Perm(len(s.pins)) {
			s.checkImage(t, fmt.Sprintf("seed %d version %d/%d", seed, i, len(s.pins)), s.pins[i], kernels)
		}
		if c := s.cat.ImageCounters(); c.Derived < c.FullBuilds {
			t.Errorf("seed %d: %d derivations to %d full builds (%v): the sequence hardly derives", seed, c.Derived, c.FullBuilds, c.Fallbacks)
		}
	}
}

// TestDerivationFallbacks walks through each reason a delta does not fit and
// checks that the image is rebuilt, equal to FromRows, and counted under that
// reason; and that the deltas that do fit are derived.
func TestDerivationFallbacks(t *testing.T) {
	kernels := probeKernels(t)
	s := newSheet(t)
	cat, tbl := s.cat, s.tbl
	base := types.Row{types.NewString("a1"), types.NewString("b1"), types.NewInt(1), types.NewFloat(1), types.NewInt(1), types.Null}
	with := func(ci int, v types.Value) types.Row {
		r := base.Clone()
		r[ci] = v
		return r
	}
	step := func(why string, wantDerived bool, do func()) {
		t.Helper()
		before := cat.ImageCounters()
		do()
		p := s.pins[len(s.pins)-1]
		s.checkImage(t, why, p, kernels)
		after := cat.ImageCounters()
		if wantDerived {
			if after.Derived != before.Derived+1 || after.FullBuilds != before.FullBuilds {
				t.Fatalf("%s: derived %d → %d, full builds %d → %d; want one derivation", why, before.Derived, after.Derived, before.FullBuilds, after.FullBuilds)
			}
			return
		}
		if after.Fallbacks[why] != before.Fallbacks[why]+1 || after.FullBuilds != before.FullBuilds+1 || after.Derived != before.Derived {
			t.Fatalf("%s: counters %+v → %+v; want one full build for that reason", why, before, after)
		}
	}
	step("no-lineage", false, func() { s.insert(t, base, base) })
	step("append", true, func() { s.insert(t, with(0, types.NewString("a2"))) })
	step("first-null", false, func() { s.insert(t, with(1, types.Null)) })
	step("null again", true, func() { s.insert(t, with(1, types.Null)) })
	// A value of another kind than its column's is converted or refused by
	// the catalog; a refused write publishes nothing.
	for _, v := range []types.Value{types.NewString("m"), types.NewFloat(2.5)} {
		ver, im := tbl.Version.Load(), tbl.Img()
		if err := tbl.Insert(with(4, v)); err == nil || !strings.Contains(err.Error(), `column "m"`) {
			t.Fatalf("inserting %v into INT column m: err %v, want a typed error naming the column", v, err)
		}
		if tbl.Version.Load() != ver || tbl.Img() != im || len(tbl.Rows) != len(im.Rows) {
			t.Fatalf("a refused insert of %v changed the table", v)
		}
	}
	step("converted append", true, func() { s.insert(t, with(4, types.NewFloat(2))) })
	step("kind-change", false, func() { s.insert(t, with(5, types.NewInt(7))) })
	step("update", true, func() {
		s.update(t, []int32{0, 2}, []int{0, 2}, func(p int32, ci int) types.Value {
			return []types.Value{types.NewString("fresh0"), {}, types.NewInt(int64(p) + 40)}[ci]
		})
	})
	step("first-null", false, func() {
		s.update(t, []int32{1}, []int{2}, func(int32, int) types.Value { return types.Null })
	})
	step("converted update", true, func() {
		s.update(t, []int32{1}, []int{3}, func(int32, int) types.Value { return types.NewInt(3) })
	})
	step("delete none", true, func() { s.remove(somePositions(rand.New(rand.NewSource(1)), len(tbl.Rows), 1)) })
	step("delete some", true, func() { s.remove([]int32{0, 2, 3, 5}) })
	step("ragged", false, func() {
		tbl.Rows = append(tbl.Rows, types.Row{types.NewString("short")})
		tbl.Version.Add(1)
		s.publish()
	})
	step("no-lineage", false, func() {
		// Rows assigned by hand, as bench/pipeline.go does: a full, correct image.
		tbl.Rows = append(make([]types.Row, 0, 8), base, with(0, types.NewString("a3")))
		s.note(tbl.Rows...)
		s.publish()
	})
	step("kind-change", false, func() {
		s.update(t, []int32{1}, []int{5}, func(int32, int) types.Value { return types.NewInt(7) })
	})
	step("delete all", true, func() { s.remove([]int32{}) })
	for i, p := range s.pins {
		s.checkImage(t, fmt.Sprintf("version %d afterwards", i), p, kernels)
	}
}

// TestUnreadPredecessorIsBuiltOnce: images published one after another
// without a reader in between all lead back to the first of them; whichever
// is demanded first builds that one in full, once, and every other is derived.
func TestUnreadPredecessorIsBuiltOnce(t *testing.T) {
	kernels := probeKernels(t)
	s := newSheet(t)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 6; i++ {
		s.insert(t, gen(r, 0, 8), gen(r, 0, 8), gen(r, 0, 8))
	}
	for _, i := range []int{4, 2, 5, 0, 1, 3} {
		s.checkImage(t, fmt.Sprintf("version %d", i), s.pins[i], kernels)
	}
	if c := s.cat.ImageCounters(); c.FullBuilds != 1 || c.Derived != 5 {
		t.Errorf("counters %+v, want one full build (of the first image) and five derivations", c)
	}
}

// TestDictionaryOverflowFallsBack pushes a dictionary column past
// DictMaxEntries by an append and by an UPDATE: FromRows would store plain
// strings, so the derivation must give way to it.
func TestDictionaryOverflowFallsBack(t *testing.T) {
	cat := catalog.New()
	tbl, err := cat.Create("t", types.NewSchemaNames("k"))
	if err != nil {
		t.Fatal(err)
	}
	tbl.Rows = make([]types.Row, 0, colstore.DictMaxEntries+64)
	fill := func(from, to int) []types.Row {
		rows := make([]types.Row, 0, to-from)
		for i := from; i < to; i++ {
			rows = append(rows, types.Row{types.NewString(fmt.Sprintf("s%06d", i))})
		}
		return rows
	}
	check := func(label string, wantDict bool) {
		t.Helper()
		tbl.Publish()
		im := tbl.Img()
		got, want := im.Columnar(), colstore.FromRows(1, im.Rows)
		if got.Cols[0].IsDict() != wantDict || want.Cols[0].IsDict() != wantDict {
			t.Fatalf("%s: dictionary derived=%v rebuilt=%v, want %v", label, got.Cols[0].IsDict(), want.Cols[0].IsDict(), wantDict)
		}
		for i := range im.Rows {
			if got.Cols[0].Str(i) != im.Rows[i][0].S {
				t.Fatalf("%s: row %d reads %q, holds %q", label, i, got.Cols[0].Str(i), im.Rows[i][0].S)
			}
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tbl.Insert(fill(0, colstore.DictMaxEntries-4)...))
	check("below the cap", true)
	must(tbl.Insert(fill(colstore.DictMaxEntries-4, colstore.DictMaxEntries)...))
	check("at the cap", true)
	if c := cat.ImageCounters(); c.Derived != 1 || c.FullBuilds != 1 {
		t.Fatalf("counters %+v, want one full build and one derivation", c)
	}
	// An UPDATE that replaces one string by a new one: the derived dictionary
	// would need an entry more than the cap, a rebuilt one does not.
	next := append(make([]types.Row, 0, cap(tbl.Rows)), tbl.Rows...)
	next[0] = types.Row{types.NewString("replacement")}
	must(tbl.Replace(&mvcc.Delta{From: tbl.Img(), Rows: next, Patched: []int32{0}, Cols: []int{0}}))
	check("update past the cap", true)
	must(tbl.Insert(fill(colstore.DictMaxEntries, colstore.DictMaxEntries+3)...))
	check("append past the cap", false)
	if c := cat.ImageCounters(); c.Fallbacks["dict-overflow"] != 2 {
		t.Fatalf("counters %+v, want two dict-overflow fallbacks", c)
	}
	must(tbl.Insert(fill(colstore.DictMaxEntries+3, colstore.DictMaxEntries+6)...))
	check("plain strings extend", false)
	if c := cat.ImageCounters(); c.Derived != 2 {
		t.Fatalf("counters %+v, want the plain-string append derived", c)
	}
}

// TestConcurrentDerivation is the -race test of the sharing discipline: one
// writer appends while eight readers demand the columnar forms of whatever
// versions exist, in random order, and read every vector they get.
func TestConcurrentDerivation(t *testing.T) {
	s := newSheet(t)
	r := rand.New(rand.NewSource(5))
	seedRows := make([]types.Row, 64)
	for i := range seedRows {
		seedRows[i] = gen(r, 1, i)
	}
	s.insert(t, seedRows...)
	s.pins[0].im.Columnar()

	var mu sync.Mutex
	pins := []*mvcc.Image{s.pins[0].im}
	const versions = 300
	var wg sync.WaitGroup
	for reader := 0; reader < 8; reader++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				mu.Lock()
				n := len(pins)
				im := pins[r.Intn(n)]
				mu.Unlock()
				readAll(t, im)
				if n > versions {
					return
				}
			}
		}(int64(reader))
	}
	for v := 0; v < versions; v++ {
		rows := make([]types.Row, 1+r.Intn(4))
		for i := range rows {
			rows[i] = gen(r, 1, 40+v)
		}
		s.insert(t, rows...)
		mu.Lock()
		pins = append(pins, s.tbl.Img())
		mu.Unlock()
	}
	wg.Wait()
}

// TestSiblingsDeriveConcurrently demands, at the same moment, two descendants
// of one built ancestor: both find the ancestor's spare room, one may take it.
func TestSiblingsDeriveConcurrently(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for round := 0; round < 40; round++ {
		s := newSheet(t)
		rows := make([]types.Row, 40)
		for i := range rows {
			rows[i] = gen(r, 1, i)
		}
		s.insert(t, rows[:20]...)
		s.pins[0].im.Columnar()
		// Two generations so that the built one has room behind its vectors.
		s.insert(t, rows[20:30]...)
		s.pins[1].im.Columnar()
		s.insert(t, gen(r, 1, 90), gen(r, 1, 91))
		s.insert(t, gen(r, 1, 92))
		var wg sync.WaitGroup
		for _, p := range s.pins[2:] {
			wg.Add(1)
			go func(im *mvcc.Image) {
				defer wg.Done()
				readAll(t, im)
			}(p.im)
		}
		wg.Wait()
	}
}

// readAll reads every slot of im's columnar form and compares it with the row.
func readAll(t *testing.T, im *mvcc.Image) {
	img := im.Columnar()
	for ci, c := range img.Cols {
		for i, row := range im.Rows {
			if v := c.Value(i); !sameValue(v, row[ci]) {
				t.Errorf("version %d col %d row %d: reads %#v, row holds %#v", im.Version, ci, i, v, row[ci])
				return
			}
		}
		if c.IsDict() {
			for code, str := range c.Dict {
				if got, ok := c.DictCode(str); !ok || int(got) != code {
					t.Errorf("version %d col %d: DictCode(%q) = %d,%v, want %d", im.Version, ci, str, got, ok, code)
					return
				}
			}
		}
	}
}

func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestDeriveAllocatesTheDelta pins the cost: over a 120k-row table, the
// columnar form after a 16-row append allocates under 5 % of what FromRows of
// the same rows does — taken as the mean over 64 successive appends from a
// freshly built (exactly sized) form, so the one reallocation that gives the
// vectors room is charged too — and a derivation that finds room under 1 %
// (what it copies is the null bitmaps, N/64 words per nullable column). The
// master row slice is given its room up front: its own reallocation, once per
// quarter of growth, costs the next image its lineage and is not what is
// measured here.
func TestDeriveAllocatesTheDelta(t *testing.T) {
	s := newSheet(t)
	s.tbl.Rows = make([]types.Row, 0, 130_000)
	r := rand.New(rand.NewSource(3))
	big := make([]types.Row, 120_000)
	for i := range big {
		big[i] = gen(r, 0, 64)
	}
	s.insert(t, big...)
	s.pins[0].im.Columnar()
	full := allocated(func() { colstore.FromRows(len(sheetCols), s.tbl.Rows) })

	batch := func() []types.Row {
		rows := make([]types.Row, 16)
		for i := range rows {
			rows[i] = gen(r, 0, 64)
		}
		return rows
	}
	const appends = 64
	var total, last uint64
	for i := 0; i < appends; i++ {
		s.insert(t, batch()...)
		im := s.tbl.Img()
		last = allocated(func() { im.Columnar() })
		total += last
	}
	if mean := total / appends; mean*20 >= full {
		t.Errorf("deriving after a 16-row append allocates %d B on average, FromRows %d B: want under 5 %%", mean, full)
	}
	if last*100 >= full {
		t.Errorf("a derivation with room allocates %d B, FromRows %d B: want under 1 %%", last, full)
	}
	if c := s.tbl.Img().Columnar(); c.NRows != len(big)+appends*16 {
		t.Fatalf("image has %d rows", c.NRows)
	}
}
