// Package mvcc provides copy-on-write versioned table images: immutable
// snapshots of a table's rows published at statement boundaries so readers
// scan a consistent version without holding any lock while writers install
// the next one.
//
// The protocol (documented in DESIGN.md §16):
//
//   - Writers mutate the master row slice under the database's exclusive
//     statement lock and publish a fresh Image when the statement completes.
//     Every mutation either appends past the published length (Insert) or
//     replaces the whole slice with a newly allocated one (UPDATE, DELETE,
//     REFRESH), so rows visible through an already-published Image are never
//     written again.
//   - Readers pin Images (see catalog.Snapshot) and only ever dereference
//     the pinned slice header. An append into the master slice's spare
//     capacity writes array elements at indexes >= the pinned length, which
//     no reader indexes, so the scheme is race-free without a single atomic
//     on the read path beyond the pointer load that fetched the Image.
//   - The columnar form of an Image follows the same rule one level down.
//     It is built on first demand, and an Image that knows how it differs
//     from an ancestor whose columnar form exists (rows appended, cells
//     patched by an UPDATE, rows kept by a DELETE) derives it from that
//     ancestor's instead of transposing every row: vectors are shared below
//     the ancestor's length and written only past it, by the one successor
//     that claimed the room (see internal/colstore/derive.go).
package mvcc

import (
	"slices"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// Image is one immutable version of a table's rows. Rows (the slice header,
// the row slices and the values inside them) must never be mutated after
// publication; the engine's copy-on-write discipline guarantees it.
type Image struct {
	// Version is the table's mutation counter at publication time.
	Version int64
	// Rows is the published row set. Its capacity is clipped to its length
	// so an accidental append can never scribble into the master slice.
	Rows []types.Row

	ncols int

	// colMu serializes columnar builds; colImg caches the image's columnar
	// form (nil inner image = rows not rectangular, cached too).
	colMu  sync.Mutex
	colImg atomic.Pointer[colCache]
	// from, while the columnar form is unbuilt, says how to derive it; it is
	// dropped on use so that the ancestor it names becomes collectable.
	from     atomic.Pointer[lineage]
	counters *Counters
}

// colCache wraps the built columnar image so "built, but nil" is
// distinguishable from "not built yet".
type colCache struct{ img *colstore.Table }

// Delta is what an UPDATE or DELETE hands over with the rows it produced: the
// positions it touched in the image it read. With From set, exactly one of
// Cols and Kept is non-nil; without, the positions are of no use and may be
// left out.
type Delta struct {
	// From is the image Patched/Kept index; Rows is the statement's result.
	From *Image
	Rows []types.Row
	// UPDATE: Rows[p] differs from From.Rows[p] in columns Cols, for p in
	// Patched (ascending).
	Patched []int32
	Cols    []int
	// DELETE: Rows[k] is From.Rows[Kept[k]] (ascending).
	Kept []int32
}

// lineage is the one link an unbuilt image keeps: the image's rows are base's
// rows, patched or filtered as the UPDATE/DELETE fields say, followed by any
// number of appended rows. base's columnar form exists or is built in full
// on demand (base has no link of its own).
type lineage struct {
	base    *Image
	patched []int32
	cols    []int
	kept    []int32
	// mu serializes the derivations through this link, and nearest is the
	// longest image made through it so far. The images holding one link are
	// successive appends to the first of them, so nearest is a nearer base —
	// its rows plus appended ones — for every holder at least as long, and
	// the one whose vectors still have their spare room (base's went to the
	// first holder that derived). One at a time, each holder finds that room
	// free; side by side, all but one would copy every vector.
	mu      sync.Mutex
	nearest *Image
}

// NewImage publishes rows as an immutable image at the given version.
// ncols is the table's schema width, used for the columnar transposition.
func NewImage(version int64, ncols int, rows []types.Row) *Image {
	return &Image{Version: version, Rows: rows[:len(rows):len(rows)], ncols: ncols}
}

// Follow records, on a freshly made image, how it descends from prev, the
// image it replaces, so that its columnar form can be derived instead of
// rebuilt. d is the delta of the UPDATE or DELETE that produced the rows, nil
// when nothing was handed over; an append is recognised by proof: same backing
// array as prev, longer, version advanced once per row. Anything else leaves
// the image without lineage, to be built in full. c, when non-nil, receives
// the image's build counts. Follow does no columnar work.
//
// The link is never a chain. It names prev when prev's columnar form exists
// or prev has no link of its own (the form is then built in full on prev,
// once, for all of prev's descendants). When prev is itself waiting on a
// link, an append takes that link over — it describes prev's rows plus
// appended ones, which this image's are too — and an UPDATE or DELETE, which
// cannot be folded into it, goes without.
func (im *Image) Follow(prev *Image, d *Delta, c *Counters) {
	im.counters = c
	if prev == nil || prev.ncols != im.ncols || len(prev.Rows) == 0 {
		return // nothing to derive from: an image of no rows has no representation yet
	}
	// prev's link is read before its columnar form: a reader deriving prev
	// concurrently stores the form first and drops the link second, so a
	// link seen here without a form is still good.
	l := prev.from.Load()
	waiting := l != nil && prev.colImg.Load() == nil
	switch {
	case d != nil:
		if d.From == prev && im.Version == prev.Version+1 && sameSlice(im.Rows, d.Rows) && !waiting {
			im.from.Store(&lineage{base: prev, patched: d.Patched, cols: d.Cols, kept: d.Kept})
		}
	case !appendedTo(prev, im):
	case waiting:
		im.from.Store(l)
	default:
		im.from.Store(&lineage{base: prev})
	}
}

func sameSlice(a, b []types.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// appendedTo reports whether next's rows are prev's rows (at least one)
// followed by more of them, inserted one version at a time.
func appendedTo(prev, next *Image) bool {
	k := len(next.Rows) - len(prev.Rows)
	if k < 0 || next.Version-prev.Version != int64(k) {
		return false
	}
	return &prev.Rows[0] == &next.Rows[0]
}

// Covers reports whether the image was published from exactly this row set
// at this version: same version, same length, same backing array. A writer
// uses it to skip re-publishing untouched tables.
func (im *Image) Covers(v int64, rows []types.Row) bool {
	return im != nil && im.Version == v && sameSlice(im.Rows, rows)
}

// Columnar returns the image's columnar form, made on first use and cached
// for the image's lifetime (an image's rows never change, so no freshness
// check is needed): derived from an ancestor's when the image has lineage and
// the delta fits the ancestor's representation, else built in full by
// colstore.FromRows. It returns nil when the rows are not rectangular. Safe
// for concurrent use.
func (im *Image) Columnar() *colstore.Table {
	if c := im.colImg.Load(); c != nil {
		return c.img
	}
	im.colMu.Lock()
	defer im.colMu.Unlock()
	if c := im.colImg.Load(); c != nil {
		return c.img
	}
	l := im.from.Load()
	if l != nil {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	img, why := im.derive(l)
	if img == nil {
		img = colstore.FromRows(im.ncols, im.Rows)
		if img == nil {
			why = colstore.Ragged
		}
		im.counters.fullBuild(why)
	}
	im.colImg.Store(&colCache{img: img})
	if l != nil && img != nil && (l.nearest == nil || len(l.nearest.Rows) < len(im.Rows)) {
		l.nearest = im
	}
	im.from.Store(nil)
	return img
}

// noLineage is the fallback reason of an image that has nothing to derive
// from: the first image of a table, one whose rows were replaced wholesale or
// whose row slice moved when it grew, an UPDATE or DELETE over an image that
// was still waiting for its own derivation.
const noLineage colstore.Misfit = "no-lineage"

// derive makes the columnar form from lineage l, or says why not.
func (im *Image) derive(l *lineage) (*colstore.Table, colstore.Misfit) {
	if l == nil {
		return nil, noLineage
	}
	fit, touched := colstore.Fits, 0
	var t *colstore.Table
	if near := l.nearest; near != nil && len(near.Rows) <= len(im.Rows) {
		t = near.colImg.Load().img
	} else if t = l.base.Columnar(); t == nil {
		return nil, colstore.Ragged
	} else {
		switch {
		case l.kept != nil:
			t, touched = t.Keep(im.Rows[:len(l.kept)], l.kept), len(l.kept)
		case l.cols != nil:
			t, fit = t.Patch(im.Rows[:t.NRows], l.patched, l.cols)
			touched = len(l.patched)
		}
	}
	if fit == colstore.Fits && (t.NRows < len(im.Rows) || t.NRows == 0 || &t.Rows[0] != &im.Rows[0]) {
		touched += len(im.Rows) - t.NRows
		t, fit = t.Extend(im.Rows)
	}
	if fit != colstore.Fits {
		return nil, fit
	}
	im.counters.derive(touched)
	return t, colstore.Fits
}

// Reasons lists why a columnar form is built in full instead of derived: the
// four misfits colstore reports, and an image with nothing to derive from.
var Reasons = [...]colstore.Misfit{
	colstore.FirstNull, colstore.KindChange, colstore.DictOverflow, colstore.Ragged, noLineage,
}

// Counters counts how the columnar forms of the images sharing it came to
// be. A nil *Counters counts nothing.
type Counters struct {
	derived, derivedRows atomic.Int64
	fullBuilds           [len(Reasons)]atomic.Int64 // by Reasons index
}

// CounterValues is a snapshot of Counters. Every full build has one reason,
// so FullBuilds is the sum of Fallbacks.
type CounterValues struct {
	FullBuilds  int64
	Derived     int64
	DerivedRows int64            // rows appended, patched or kept by derivations
	Fallbacks   map[string]int64 // by reason; every reason is present
}

func (c *Counters) fullBuild(why colstore.Misfit) {
	if c != nil {
		c.fullBuilds[slices.Index(Reasons[:], why)].Add(1)
	}
}

func (c *Counters) derive(rows int) {
	if c != nil {
		c.derived.Add(1)
		c.derivedRows.Add(int64(rows))
	}
}

// Snapshot reads the counters.
func (c *Counters) Snapshot() CounterValues {
	v := CounterValues{Derived: c.derived.Load(), DerivedRows: c.derivedRows.Load(),
		Fallbacks: make(map[string]int64, len(Reasons))}
	for i, why := range Reasons {
		n := c.fullBuilds[i].Load()
		v.Fallbacks[string(why)] = n
		v.FullBuilds += n
	}
	return v
}
