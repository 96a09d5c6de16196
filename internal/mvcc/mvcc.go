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
package mvcc

import (
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
	// transposition (nil inner image = rows not rectangular, cached too).
	colMu  sync.Mutex
	colImg atomic.Pointer[colCache]
}

// colCache wraps the built columnar image so "built, but nil" is
// distinguishable from "not built yet".
type colCache struct{ img *colstore.Table }

// NewImage publishes rows as an immutable image at the given version.
// ncols is the table's schema width, used for the columnar transposition.
func NewImage(version int64, ncols int, rows []types.Row) *Image {
	return &Image{Version: version, Rows: rows[:len(rows):len(rows)], ncols: ncols}
}

// Covers reports whether the image was published from exactly this row set
// at this version: same version, same length, same backing array. A writer
// uses it to skip re-publishing untouched tables.
func (im *Image) Covers(v int64, rows []types.Row) bool {
	if im == nil || im.Version != v || len(im.Rows) != len(rows) {
		return false
	}
	if len(rows) == 0 {
		return true
	}
	return &im.Rows[0] == &rows[0]
}

// Columnar returns the image's columnar transposition, built lazily on
// first use and cached for the image's lifetime (an image's rows never
// change, so no freshness check is needed). It returns nil when the rows
// are not rectangular. Safe for concurrent use.
func (im *Image) Columnar() *colstore.Table {
	if c := im.colImg.Load(); c != nil {
		return c.img
	}
	im.colMu.Lock()
	defer im.colMu.Unlock()
	if c := im.colImg.Load(); c != nil {
		return c.img
	}
	img := colstore.FromRows(im.ncols, im.Rows)
	im.colImg.Store(&colCache{img: img})
	return img
}
