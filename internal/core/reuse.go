package core

// CloneForReuse returns an independent copy of a pristine — freshly built,
// never evaluated — partition set, or nil when the structure is not
// reusable (spill-backed stores). The serving-path cache
// keeps one pristine copy per spreadsheet node and clones it again for each
// execution, so formula evaluation always starts from build state.
//
// Nothing a frame holds is copied: the input image and rows, the input
// positions, PBY values, the cell tables and the bucket's DBY domains and
// word layout are all shared between ps and the clone. The input is never
// written; measures live in vectors each side creates on first use (the
// vectors of an evaluated ps are copied); and each side copies a piece only
// when it is about to change it — a cell table on the frame's first Insert,
// a domain or the layout when an Insert adds a value (bucket.wordGrow), the
// inserted cells' lists by appending past a clipped capacity. ps itself may
// therefore still be evaluated afterwards (a cache miss evaluates the
// structure it has just published a clone of). ps is only written when it
// has not been cloned before, so concurrent clones of the cached pristine
// copy are safe.
func (ps *PartitionSet) CloneForReuse() *PartitionSet {
	cp := &PartitionSet{model: ps.model, src: ps.src, buckets: make([]*bucket, len(ps.buckets))}
	for bi, b := range ps.buckets {
		if b.store != nil {
			return nil
		}
		nb := &bucket{m: b.m, src: b.src, frames: make([]*Frame, len(b.frames)), keys: b.keys.share(), bytes: b.bytes,
			in: b.in, ins: b.ins[:len(b.ins):len(b.ins)], meas: make([]*measVec, len(b.meas))}
		for k, v := range b.meas {
			if v != nil {
				nb.meas[k] = v.clone() // alloc-ok: an evaluated structure's vectors only; a pristine one has none
			}
		}
		fs := make([]Frame, len(b.frames))
		for fi, f := range b.frames {
			if !f.cellsShared {
				f.cellsShared = true
			}
			fs[fi] = Frame{b: nb, ord: fi, pby: f.pby, base: f.base, ext: f.ext[:len(f.ext):len(f.ext)], in: f.in,
				cells: f.cells, cellsShared: true, builtLen: f.builtLen}
			nb.frames[fi] = &fs[fi]
		}
		cp.buckets[bi] = nb
	}
	return cp
}

// KeyNote says how the structure keys its cells, for EXPLAIN ANALYZE:
// "packed" when every bucket packs its DBY ordinals into one word,
// "bytes(overflow)" when some bucket's fields outgrew 64 bits.
func (ps *PartitionSet) KeyNote() string {
	for _, b := range ps.buckets {
		if !b.keys.lay.Packed() {
			return "bytes(overflow)"
		}
	}
	return "packed"
}

// EstimateBytes approximates the structure's resident size at build time
// for cache budgeting: input positions (and the image they pin) or stored
// rows, plus the cell tables.
func (ps *PartitionSet) EstimateBytes() int64 {
	var n int64
	for _, b := range ps.buckets {
		n += b.bytes
	}
	return n
}
