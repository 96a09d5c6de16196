package colstore

import (
	"slices"
	"sync/atomic"

	"sqlsheet/internal/types"
)

// This file derives the columnar image of a table version from the image of
// the version before it, in time proportional to the rows the version
// touched: Extend for appended rows, Patch for an UPDATE's rewritten cells,
// Keep for a DELETE's survivors. FromRows stays the definition — a derived
// table answers Value, IsNull, AppendKey and every kernel exactly as FromRows
// of the same rows would (its dictionaries may hold strings no surviving row
// uses) — and whatever a delta cannot express in the source's representation
// is reported as a Misfit for the caller to rebuild in full.
//
// What a table shares with the one it was derived from: vectors below the
// source's length (Extend), whole untouched columns (Patch), dictionaries
// (all three). Shared memory is never written: published vectors are clipped
// to their length, the room behind them is reachable only through the
// table's tail, and a tail is handed to one successor. Null bitmaps are
// copied instead (N/64 words), because their last word straddles the length.

// Misfit names why a delta does not fit the representation it was applied to.
type Misfit string

const (
	Fits         Misfit = ""
	FirstNull    Misfit = "first-null"    // NULL into a column without a bitmap
	KindChange   Misfit = "kind-change"   // the first values of an all-NULL column
	DictOverflow Misfit = "dict-overflow" // FromRows would abandon the dictionary
	Ragged       Misfit = "ragged"        // a row of another width: no image at all
)

// tail holds, per column, the same vectors as Table.Cols with their spare
// capacity still attached.
type tail struct {
	taken atomic.Bool
	wide  []Column
}

// takeTail returns the columns a successor may append to: t's tail if no
// other successor claimed it, else the clipped columns (an append to those
// reallocates, which is the copy the loser of the claim owes).
func (t *Table) takeTail() []Column {
	if t.tail != nil && t.tail.taken.CompareAndSwap(false, true) {
		return t.tail.wide
	}
	wide := make([]Column, len(t.Cols))
	for ci, c := range t.Cols {
		wide[ci] = *c
		wide[ci].clip()
	}
	return wide
}

// clip cuts the room behind c's vectors off, so that nothing reached through
// c can write memory a successor may come to own.
func (c *Column) clip() {
	c.Ints = slices.Clip(c.Ints)
	c.Floats = slices.Clip(c.Floats)
	c.Strs = slices.Clip(c.Strs)
	c.Dict = slices.Clip(c.Dict)
	c.Codes = slices.Clip(c.Codes)
}

// publish installs wide as t's columns, clipped, and keeps it as t's tail.
// Each column is its own allocation: whoever keeps one *Column (a cached
// kernel's per-dictionary table does) must not keep its siblings' vectors.
func (t *Table) publish(wide []Column) {
	t.Cols = make([]*Column, len(wide))
	for ci := range wide {
		c := wide[ci]
		c.clip()
		t.Cols[ci] = &c
	}
	t.tail = &tail{wide: wide}
}

// Extend returns the image of rows, whose first t.NRows rows are the rows t
// images. It costs the appended rows (amortised: vectors grow as slices do).
func (t *Table) Extend(rows []types.Row) (*Table, Misfit) {
	add := rows[t.NRows:]
	if !Rectangular(len(t.Cols), add) {
		return nil, Ragged
	}
	wide := t.takeTail()
	for ci := range wide {
		if m := wide[ci].extend(ci, add); m != Fits {
			return nil, m
		}
	}
	out := &Table{NRows: len(rows), Rows: rows}
	out.publish(wide)
	return out, Fits
}

// Patch returns the image of rows, which equal the rows t images except in
// columns cols at positions pos. Every other column is shared with t. A
// patched column is a copy that keeps the room the original had, so the
// appends that follow an UPDATE still land in place.
func (t *Table) Patch(rows []types.Row, pos []int32, cols []int) (*Table, Misfit) {
	for _, p := range pos {
		if len(rows[p]) != len(t.Cols) {
			return nil, Ragged
		}
	}
	wide := t.takeTail()
	out := &Table{NRows: t.NRows, Cols: slices.Clone(t.Cols), Rows: rows, tail: &tail{wide: wide}}
	for _, ci := range cols {
		w := &wide[ci]
		w.cloneVectors()
		if m := w.patch(ci, rows, pos); m != Fits {
			return nil, m
		}
		c := *w
		c.clip()
		out.Cols[ci] = &c
	}
	return out, Fits
}

// Keep returns the image of rows, which are rows kept[0], kept[1], ... of the
// rows t images (ascending). Dictionaries are kept whole.
func (t *Table) Keep(rows []types.Row, kept []int32) *Table {
	out := &Table{NRows: len(kept), Cols: make([]*Column, len(t.Cols)), Rows: rows}
	for ci, c := range t.Cols {
		out.Cols[ci] = Gather(c, kept)
	}
	return out
}

// grown returns a copy of b with room for n bits.
func (b Bitmap) grown(n int) Bitmap {
	g := NewBitmap(n)
	copy(g, b)
	return g
}

// cloneVectors replaces the vectors a patch writes by copies of the same
// capacity; the dictionary stays shared.
func (c *Column) cloneVectors() {
	c.Nulls = slices.Clone(c.Nulls)
	c.Ints = roomy(c.Ints)
	c.Floats = roomy(c.Floats)
	c.Strs = roomy(c.Strs)
	c.Codes = roomy(c.Codes)
}

func roomy[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, cap(s)), s...)
}

// code returns s's dictionary code, adding s when it is new. The index is
// shared with the column's predecessor until the first addition copies it;
// owned says it already was.
func (c *Column) code(s string, owned *bool) (uint32, Misfit) {
	if code, ok := c.dictIdx[s]; ok {
		return code, Fits
	}
	if len(c.Dict) >= DictMaxEntries {
		return 0, DictOverflow
	}
	if !*owned {
		idx := make(map[string]uint32, len(c.dictIdx)+1)
		for k, v := range c.dictIdx {
			idx[k] = v
		}
		c.dictIdx, *owned = idx, true
		c.rank = new(dictRank) // a longer dictionary, ranked anew
	}
	code := uint32(len(c.Dict))
	c.Dict = append(c.Dict, s)
	c.dictIdx[s] = code
	return code, Fits
}

// extend appends column ci of add to c, which owns the room behind its
// vectors. A non-NULL value has c's kind: the rows are a stored table's, and
// the catalog stores every value of a column in one kind.
func (c *Column) extend(ci int, add []types.Row) Misfit {
	n := c.N + len(add)
	switch {
	case c.Kind == types.KindNull:
		for _, r := range add {
			if !r[ci].IsNull() {
				return KindChange
			}
		}
		c.Nulls = c.Nulls.grown(n)
		for i := c.N; i < n; i++ {
			c.Nulls.Set(i)
		}
	default:
		if c.Nulls != nil {
			c.Nulls = c.Nulls.grown(n)
		}
		ownDict := false
		for i, r := range add {
			v := r[ci]
			null := v.IsNull()
			if null {
				if c.Nulls == nil {
					return FirstNull
				}
				c.Nulls.Set(c.N + i)
				v = types.Value{} // a NULL slot holds the zero element
			}
			switch {
			case c.Kind == types.KindFloat:
				c.Floats = append(c.Floats, v.F)
			case c.Kind != types.KindString:
				c.Ints = append(c.Ints, v.I)
			case c.Dict == nil:
				c.Strs = append(c.Strs, v.S)
			case null:
				c.Codes = append(c.Codes, 0)
			default:
				code, m := c.code(v.S, &ownDict)
				if m != Fits {
					return m
				}
				c.Codes = append(c.Codes, code)
			}
		}
	}
	c.N = n
	return Fits
}

// patch rewrites c's slots at pos from column ci of rows; c owns its vectors.
// As in extend, a non-NULL value has c's kind.
func (c *Column) patch(ci int, rows []types.Row, pos []int32) Misfit {
	ownDict := false
	for _, p := range pos {
		v := rows[p][ci]
		null := v.IsNull()
		switch {
		case c.Kind == types.KindNull:
			if !null {
				return KindChange
			}
			continue
		case null:
			if c.Nulls == nil {
				return FirstNull
			}
			c.Nulls.Set(int(p))
			v = types.Value{} // a NULL slot holds the zero element
		case c.Nulls != nil:
			c.Nulls.Clear(int(p))
		}
		switch {
		case c.Kind == types.KindFloat:
			c.Floats[p] = v.F
		case c.Kind != types.KindString:
			c.Ints[p] = v.I
		case c.Dict == nil:
			c.Strs[p] = v.S
		case null:
			c.Codes[p] = 0
		default:
			code, m := c.code(v.S, &ownDict)
			if m != Fits {
				return m
			}
			c.Codes[p] = code
		}
	}
	return Fits
}
