package core

import (
	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/types"

	"sqlsheet/internal/wordkey"
)

// PartitionSet is the paper's two-level hash access structure (§5): rows are
// hash partitioned on the PBY columns into first-level buckets; within each
// bucket a table per frame, keyed by the DBY values as one integer word
// (cellkeys.go), addresses individual cells. Each
// bucket owns one row store, so bounding the store's memory models the
// paper's "fit the second-level hash tables of each first-level partition in
// memory" regime, with spilling beyond it. The build keeps every stored
// row's position in the input relation (Frame.in), so a run can hand its
// result out as those positions plus typed measure columns (output.go)
// rather than as rows.
type PartitionSet struct {
	model   *Model
	buckets []*bucket
	// shareRows records that the structure was built with
	// BuildOptions.ShareRows: stored rows are shared with the input
	// relation and Rows hands them out by reference. Carried across
	// CloneForReuse so reused structures keep the fast path.
	shareRows bool
}

type bucket struct {
	store  blockstore.Store
	frames []*Frame // spreadsheet partitions, in first-seen order
	// keys turns DBY values into the words the frames' cell tables are
	// keyed by.
	keys *cellKeys
	// bytes is the bucket's share of EstimateBytes, summed while the build
	// appends each row.
	bytes int64

	// img caches the columns kernels have asked for of one columnar image
	// over a run of the bucket's frames in bucket order, imgRun (all of
	// them, those still iterating, or one), laid out frame after frame:
	// imgOff[i] is the first image row of imgRun[i] and the last entry is
	// the row count. A batch rule
	// images every frame of the bucket at once, a partition scan one frame
	// (or reads its rows out of a cached run that covers it). A measure write
	// drops the written column, an Insert drops the cache (the row set and
	// the offsets changed), and the next image extracts just the missing
	// columns it needs. A bucket is evaluated by exactly one PE, which makes
	// the cache race-free.
	img    []*colstore.Column
	imgRun []*Frame
	imgOff []int
}

// imgMark drops a column from the cached image: its stored values changed.
func (b *bucket) imgMark(col int) {
	if b.img != nil {
		b.img[col] = nil
	}
}

// posSet is a bitmap over frame positions that grows on demand.
type posSet colstore.Bitmap

func (s posSet) has(pos int) bool {
	return pos>>6 < len(s) && colstore.Bitmap(s).Get(pos)
}

// set marks pos; n is the frame's current length, so the first mark sizes
// the bitmap once and only later Inserts extend it.
func (s *posSet) set(pos, n int) {
	if need := (max(n, pos+1) + 63) >> 6; need > len(*s) {
		*s = append(*s, make(posSet, need-len(*s))...)
	}
	colstore.Bitmap(*s).Set(pos)
}

// Frame is one spreadsheet partition: all rows sharing the PBY values.
type Frame struct {
	b *bucket
	// ord is the frame's position in b.frames.
	ord int
	pby []types.Value
	// ids holds the partition's rows in insertion order.
	ids []blockstore.RowID
	// cells is the frame's cell table: an open-addressed table from a DBY
	// word (bucket.keys) to the row's position in ids. The build carves every
	// frame's table out of one slab per bucket.
	cells []wordkey.Slot
	// cellsShared marks cells as shared with another structure
	// (CloneForReuse): read freely, copy before the first Insert.
	cellsShared bool
	// in holds the input position of each row the build loaded (a slice
	// of the bucket's one array, 4 bytes a row); the rows a rule inserts
	// have none. Nil in a reused structure, which has no input.
	in []int32
	// builtLen is the number of rows the build loaded. Rows are never
	// removed and Insert appends, so a cell existed before formula execution
	// (the IS PRESENT predicate) exactly when its position is below it.
	builtLen int
	// updated records positions assigned or created by a rule
	// (RETURN UPDATED ROWS).
	updated posSet

	// refFlags are the Auto-Cyclic convergence flags: two generations of
	// per-cell "referenced" marks, alternated between iterations so that
	// clearing is free (§5).
	refFlags [2]map[int64]bool
}

// StoreFactory builds the row store for one first-level bucket.
type StoreFactory func() blockstore.Store

// ChooseBuckets picks the number of first-level partitions from the
// estimated data size, the per-bucket memory budget and the parallel degree
// ("the number of first level partitions is chosen based on estimated size
// of data ... and the amount of available memory").
func ChooseBuckets(nRows int, avgRowBytes, budgetBytes int64, dop int) int {
	n := dop
	if n < 1 {
		n = 1
	}
	if budgetBytes > 0 && avgRowBytes > 0 {
		need := int((int64(nRows)*avgRowBytes + budgetBytes - 1) / budgetBytes)
		if need > n {
			n = need
		}
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

// MarkUpdated records that a rule assigned or created the row at pos.
func (f *Frame) MarkUpdated(pos int) { f.updated.set(pos, len(f.ids)) }

func joinNames(ns []string) string {
	out := ""
	for i, n := range ns {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashExtend folds more bytes into a running FNV-1a hash (computed inline so
// hashing does not allocate a hasher). A frame's first-level bucket is the
// hash of its PBY values' key bytes, folded one value after another.
func hashExtend(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= fnvPrime32
	}
	return h
}

// HashValue exposes the bucket hash for a single dimension value; the
// parallel executor uses it for the per-PE formula trigger condition
// (WHERE HASH(p) = hash_value_of_P_for_this_PE).
func HashValue(v types.Value, n int) int {
	return int(hashExtend(fnvOffset32, types.AppendKey(nil, v))) % n
}

// Buckets returns the first-level partitions (for parallel execution).
func (ps *PartitionSet) Buckets() []*bucket { return ps.buckets }

// Rows gathers every row back out in deterministic order: bucket index,
// frame discovery order, row insertion order — the order output hands out
// input positions and measure values in. updatedOnly restricts the output
// to rows assigned or created by rules (RETURN UPDATED ROWS).
func (ps *PartitionSet) Rows(updatedOnly bool) []types.Row {
	var out []types.Row
	for _, b := range ps.buckets {
		for _, f := range b.frames {
			for pos, id := range f.ids {
				if updatedOnly && !f.updated.has(pos) {
					continue
				}
				r := b.store.Get(id)
				if !ps.shareRows {
					// Spill-capable stores may reuse row storage after
					// Close; hand out private copies.
					r = r.Clone() // alloc-ok: budgeted runs only, once per result row
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// Stats sums the I/O statistics of every bucket store.
func (ps *PartitionSet) Stats() blockstore.Stats {
	var s blockstore.Stats
	for _, b := range ps.buckets {
		s.Add(b.store.Stats())
	}
	return s
}

// Close releases every bucket store.
func (ps *PartitionSet) Close() error {
	var err error
	for _, b := range ps.buckets {
		if cerr := b.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- Frame operations ---

// Len returns the number of rows currently in the frame.
func (f *Frame) Len() int { return len(f.ids) }

// PBY returns the partition's PBY values.
func (f *Frame) PBY() []types.Value { return f.pby }

// Row returns the row at position pos, for reading. The returned slice must
// not be retained across other frame operations: a write may move the row
// (first write of a shared row) or change it in place (every later one).
func (f *Frame) Row(pos int) types.Row { return f.b.store.Get(f.ids[pos]) }

// Lookup probes the cell table with dimension values; a value in no domain
// is a miss without touching the table.
func (f *Frame) Lookup(dims []types.Value) (pos int, ok bool) {
	w, ok := f.b.keys.word(dims)
	if !ok {
		return 0, false
	}
	return wordkey.Find(f.cells, w)
}

// LookupBatch probes the cell table for a batch of keys held in a columnar
// key image: keyCols holds one column per DBY dimension, rows[i] is the row
// of those columns holding key i, and out[i] receives the frame position of
// key i's cell or -1 on a miss. Each column turns into ordinals at once — a
// dictionary column by code, an INT column by arithmetic, anything else
// through the domain's value map — and no key bytes are encoded: the
// paper's F1 unfolding done once per rule instead of once per cell.
func (f *Frame) LookupBatch(keyCols []*colstore.Column, rows []int32, out []int32) {
	k := f.b.keys
	ords := k.colOrds(keyCols, rows)
	for i := range rows {
		out[i] = -1
		if w, ok := k.wordAt(ords, i); ok {
			if pos, hit := wordkey.Find(f.cells, w); hit {
				out[i] = int32(pos)
			}
		}
	}
}

// WasPresent reports whether the cell existed before the spreadsheet ran.
func (f *Frame) WasPresent(dims []types.Value) bool {
	pos, ok := f.Lookup(dims)
	return ok && pos < f.builtLen
}

// write assigns one measure of the row at pos and reports whether the
// stored value changed. Every engine write goes through here and on to
// Store.SetCol, which copies a still-shared row once and writes in place
// from then on, so nothing is allocated per write; a row obtained from Row
// or Each before the call may be stale after it.
func (f *Frame) write(pos, col int, v types.Value) bool {
	id := f.ids[pos]
	if old := f.b.store.Get(id)[col]; old.K == v.K && types.Equal(old, v) {
		return false
	}
	f.b.store.SetCol(id, col, v)
	f.b.imgMark(col)
	return true
}

// SetMeasure assigns one measure of the row at pos and reports whether the
// stored value changed.
func (f *Frame) SetMeasure(pos, col int, v types.Value) bool {
	return f.write(pos, col, v)
}

// SetMeasureBulk writes one measure column for a batch of frame positions,
// pos[i] taking slot k0+i of a rule's result vector: the columnar writeback
// of a vectorized rule. Positions are written in slice order — the same cell
// order the per-cell path produces — with the same
// mark-updated-then-compare-then-write semantics as a single assignment.
func (f *Frame) SetMeasureBulk(pos []int32, col int, vec *eval.ExprVec, k0 int) {
	for i, p := range pos {
		f.MarkUpdated(int(p))
		f.write(int(p), col, vec.BoxValue(k0+i))
	}
}

// Insert adds a new row for the given dimension values: PBY columns take
// the partition's values, DBY columns the target values, measures NULL.
// The store owns the row from birth. It returns the new row's position.
func (f *Frame) Insert(m *Model, dims []types.Value) int {
	w := f.b.wordGrow(dims)
	row := make(types.Row, m.Schema.Len())
	copy(row, f.pby)
	copy(row[m.NPby:], dims)
	id := f.b.store.Append(row)
	pos := len(f.ids)
	f.ids = append(f.ids, id)
	if f.cellsShared || 2*len(f.ids) > len(f.cells) {
		f.cells = wordkey.Rehash(f.cells, len(f.ids)) // alloc-ok: a shared table's first Insert, or a doubling
		f.cellsShared = false
	}
	wordkey.Put(f.cells, w, pos)
	f.b.img = nil
	return pos
}

// Each scans the frame's rows in insertion order. The callback's row must
// not be retained. Rows inserted during the scan are not visited.
func (f *Frame) Each(fn func(pos int, row types.Row) bool) {
	n := len(f.ids)
	for pos := 0; pos < n; pos++ {
		if !fn(pos, f.b.store.Get(f.ids[pos])) {
			return
		}
	}
}

// --- convergence flags (Auto-Cyclic) ---

func (f *Frame) flagKey(pos, mea int) int64 { return int64(pos)<<16 | int64(mea) }

// MarkReferenced records that a cell's measure was read in generation g.
func (f *Frame) MarkReferenced(g int, pos, mea int) {
	if f.refFlags[g] == nil {
		f.refFlags[g] = make(map[int64]bool) // alloc-ok: once per fixpoint generation, Auto-Cyclic only
	}
	f.refFlags[g][f.flagKey(pos, mea)] = true
}

// Referenced reports whether the cell's measure was read in generation g.
func (f *Frame) Referenced(g int, pos, mea int) bool {
	return f.refFlags[g][f.flagKey(pos, mea)]
}

// ClearFlags resets generation g (the paper alternates two flags so only
// the inactive generation needs clearing).
func (f *Frame) ClearFlags(g int) { f.refFlags[g] = nil }
