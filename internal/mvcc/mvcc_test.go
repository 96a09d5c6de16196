package mvcc_test

import (
	"slices"
	"sync"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/types"
)

func intRows(vals ...int64) []types.Row {
	rows := make([]types.Row, len(vals))
	for i, v := range vals {
		rows[i] = types.Row{types.NewInt(v)}
	}
	return rows
}

func column0(rows []types.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	return out
}

// TestImageClipsCapacity pins the property the lock-free read path rests
// on: an image shares the master slice's backing array, but an append to the
// image's rows reallocates instead of writing into the master's spare
// capacity, and a writer's append into that capacity stays beyond the
// image's length.
func TestImageClipsCapacity(t *testing.T) {
	master := make([]types.Row, 2, 8)
	copy(master, intRows(1, 2))
	im := mvcc.NewImage(7, 1, master)
	if len(im.Rows) != 2 || cap(im.Rows) != 2 {
		t.Fatalf("image rows len/cap = %d/%d, want 2/2", len(im.Rows), cap(im.Rows))
	}

	// The writer appends in place (spare capacity): the image does not grow.
	master = append(master, types.Row{types.NewInt(3)})
	if &master[0] != &im.Rows[0] {
		t.Fatal("append within capacity must not move the master slice")
	}
	if got := column0(im.Rows); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("image sees %v after a writer append, want [1 2]", got)
	}

	// A stray append through the image must not land in the master's array.
	stray := append(im.Rows, types.Row{types.NewInt(99)})
	if &stray[0] == &master[0] {
		t.Fatal("append to image rows wrote into the master's backing array")
	}
	if master[2][0].I != 3 {
		t.Fatalf("master[2] = %d after an append through the image, want 3", master[2][0].I)
	}
}

func TestImageCovers(t *testing.T) {
	rows := intRows(1, 2, 3)
	im := mvcc.NewImage(4, 1, rows)
	for _, c := range []struct {
		name string
		v    int64
		rows []types.Row
		want bool
	}{
		{"same version and rows", 4, rows, true},
		{"newer version", 5, rows, false},
		{"appended", 4, append(rows, types.Row{types.NewInt(4)}), false},
		{"swapped for an equal copy", 4, intRows(1, 2, 3), false},
	} {
		if got := im.Covers(c.v, c.rows); got != c.want {
			t.Errorf("%s: Covers = %v, want %v", c.name, got, c.want)
		}
	}
	if (*mvcc.Image)(nil).Covers(0, nil) {
		t.Error("a nil image covers nothing")
	}
	if !mvcc.NewImage(0, 1, nil).Covers(0, nil) {
		t.Error("an empty image covers the empty row set at its version")
	}
}

// TestPinnedImageSurvivesEveryKindOfWrite walks a table through the three
// ways the engine mutates rows — append, wholesale slice replacement, and
// replacement by a clone with one value changed — publishing after each, and
// checks a snapshot pinned before them still reads the rows it pinned, while
// a fresh snapshot reads the latest.
func TestPinnedImageSurvivesEveryKindOfWrite(t *testing.T) {
	cat := catalog.New()
	tb, err := cat.Create("t", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert(intRows(1, 2, 3)...); err != nil {
		t.Fatal(err)
	}
	cat.PublishAll()

	old := catalog.NewSnapshot()
	pinned := old.Pin(tb)
	want := []int64{1, 2, 3}

	// INSERT: appends past the published length.
	if err := tb.Insert(intRows(4)...); err != nil {
		t.Fatal(err)
	}
	cat.PublishAll()
	// DELETE: replaces the slice.
	tb.Rows = append(tb.Rows[:0:0], tb.Rows[1:]...)
	tb.Version.Add(1)
	cat.PublishAll()
	// UPDATE: a new slice whose changed row is a clone.
	next := append([]types.Row(nil), tb.Rows...)
	next[0] = next[0].Clone()
	next[0][0] = types.NewInt(20)
	tb.Rows = next
	tb.Version.Add(1)
	cat.PublishAll()

	if old.Pin(tb) != pinned {
		t.Error("a snapshot must keep returning the image it pinned first")
	}
	if got := column0(pinned.Rows); !slices.Equal(got, want) {
		t.Errorf("pinned image reads %v after three writes, want %v", got, want)
	}
	if v, ok := old.Pinned(tb); !ok || v != pinned.Version {
		t.Errorf("Pinned = (%d, %v), want (%d, true)", v, ok, pinned.Version)
	}
	fresh := catalog.NewSnapshot().Pin(tb)
	if got := column0(fresh.Rows); !slices.Equal(got, []int64{20, 3, 4}) {
		t.Errorf("fresh snapshot reads %v, want [20 3 4]", got)
	}
	if fresh.Version <= pinned.Version {
		t.Errorf("fresh version %d not after pinned version %d", fresh.Version, pinned.Version)
	}
	// Untouched since the last publish: PublishAll must not mint a new image.
	cat.PublishAll()
	if tb.Img() != fresh {
		t.Error("PublishAll republished a table nothing wrote")
	}
}

// TestColumnarBuiltOnceUnderConcurrency: every concurrent caller gets the
// same transposition, and it matches the rows. Run under -race.
func TestColumnarBuiltOnceUnderConcurrency(t *testing.T) {
	im := mvcc.NewImage(1, 1, intRows(5, 6, 7))
	const n = 8
	got := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = im.Columnar()
		}(i)
	}
	wg.Wait()
	first := im.Columnar()
	if first == nil || first.NRows != 3 {
		t.Fatalf("columnar image = %+v, want 3 rows", first)
	}
	for i, g := range got {
		if g != any(first) {
			t.Errorf("caller %d got a different columnar image", i)
		}
	}
	// Ragged rows have no transposition; that answer is cached too.
	ragged := mvcc.NewImage(1, 2, []types.Row{{types.NewInt(1)}, {types.NewInt(1), types.NewInt(2)}})
	if ragged.Columnar() != nil || ragged.Columnar() != nil {
		t.Error("ragged rows must have no columnar image")
	}
}
