package core

import (
	"sqlsheet/internal/blockstore"
)

// CloneForReuse returns an independent copy of a pristine — freshly built,
// never evaluated — partition set, or nil when the structure is not
// reusable (spill-backed stores). The serving-path cache
// keeps one pristine copy per spreadsheet node and clones it again for each
// execution, so formula evaluation always starts from build state.
//
// Nothing a frame holds is copied: rows, PBY values, row ids and the DBY
// hash index are all shared between ps and the clone, and each side copies
// a piece only when it is about to change it — a row on its first write
// (MemStore.CloneShallow), the index on the first Insert (Frame.putKey),
// ids by appending past a clipped capacity. ps itself may therefore still
// be evaluated afterwards (a cache miss evaluates the structure it has just
// published a clone of). ps is only written when it has not been cloned
// before, so concurrent clones of the cached pristine copy are safe.
func (ps *PartitionSet) CloneForReuse() *PartitionSet {
	cp := &PartitionSet{model: ps.model, buckets: make([]*bucket, len(ps.buckets)), shareRows: ps.shareRows}
	for bi, b := range ps.buckets {
		ms, ok := b.store.(*blockstore.MemStore)
		if !ok {
			return nil
		}
		nb := &bucket{store: ms.CloneShallow(), frames: make([]*Frame, len(b.frames)), bytes: b.bytes}
		fs := make([]Frame, len(b.frames))
		for fi, f := range b.frames {
			if !f.indexShared {
				f.indexShared = true
			}
			n := len(f.ids)
			fs[fi] = Frame{b: nb, ord: fi, pby: f.pby, ids: f.ids[:n:n], index: f.index, indexShared: true, builtLen: f.builtLen}
			nb.frames[fi] = &fs[fi]
		}
		cp.buckets[bi] = nb
	}
	return cp
}

// EstimateBytes approximates the structure's resident size at build time
// for cache budgeting: stored rows plus per-key index overhead.
func (ps *PartitionSet) EstimateBytes() int64 {
	var n int64
	for _, b := range ps.buckets {
		n += b.bytes
	}
	return n
}
