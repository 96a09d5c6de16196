package core

import (
	"slices"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/types"

	"sqlsheet/internal/wordkey"
)

// PartitionSet is the paper's two-level hash access structure (§5): rows are
// hash partitioned on the PBY columns into first-level buckets; within each
// bucket a table per frame, keyed by the DBY values as one integer word
// (cellkeys.go), addresses individual cells.
//
// An unbudgeted structure stores no rows. The build keeps every row's
// position in the input relation (Frame.in) and reads key values out of the
// input through it; measures live in typed vectors per bucket (measvec.go),
// created on first use, and the cells rules insert keep their keys in a side
// table per bucket. A run hands its result out as those positions plus the
// measure vectors (output.go) rather than as rows. A budgeted structure
// instead gives each bucket a spilling row store, so bounding the store's
// memory models the paper's "fit the second-level hash tables of each
// first-level partition in memory" regime; the Frame methods hide which of
// the two a bucket holds.
type PartitionSet struct {
	model   *Model
	src     *input
	buckets []*bucket
}

// input is the working relation a structure was built over: an image
// column per working-schema ordinal where the caller had one, and boxed
// rows only when some column has none. Working position p is row p of rows
// and image row ridx[p] (p when ridx is nil). It is never written, so
// clones of a structure share it.
type input struct {
	n    int
	cols []*colstore.Column
	ridx []int32
	rows []types.Row
	// kinds is each measure's kind for the run (runKinds); conv[ord]
	// marks a measure column whose INT values read as FLOAT.
	kinds []types.Kind
	conv  []bool
}

func newInput(m *Model, rows []types.Row, cs *ColSource) (*input, error) {
	in := &input{n: len(rows), cols: make([]*colstore.Column, m.Schema.Len()), rows: rows}
	if cs != nil {
		copy(in.cols, cs.Cols)
		in.ridx = cs.RowIdx
		if rows == nil {
			in.n = cs.len()
		}
	}
	return in, in.runKinds(m)
}

// imgRow is working position p's row in the image columns.
func (in *input) imgRow(p int32) int {
	if in.ridx != nil {
		return int(in.ridx[p])
	}
	return int(p)
}

// value is column ord of working position p.
func (in *input) value(p int32, ord int) types.Value {
	var v types.Value
	if c := in.cols[ord]; c != nil {
		v = c.Value(in.imgRow(p)) // interp-ok: a per-cell read or a row boxed on demand
	} else {
		v = in.rows[p][ord]
	}
	if in.conv[ord] && v.K == types.KindInt {
		return types.NewFloat(float64(v.I))
	}
	return v
}

type bucket struct {
	m      *Model
	src    *input
	frames []*Frame // spreadsheet partitions, in first-seen order
	// keys turns DBY values into the words the frames' cell tables are
	// keyed by.
	keys *cellKeys
	// bytes is the bucket's share of EstimateBytes.
	bytes int64

	// The bucket's rows are its frames' built rows, frame after frame, then
	// the cells rules inserted, in insertion order. in holds the input
	// position of each built row (frames slice it).
	in []int32

	// The vector store (store == nil): meas[k] holds measure k over the
	// bucket's rows, nil until first used; ins holds the NPby+NDby key
	// values of each inserted row.
	meas []*measVec
	ins  []types.Value

	// The row store of a budgeted run: ids[r] is bucket row r's row.
	store blockstore.Store
	ids   []blockstore.RowID

	// img caches the key columns kernels have asked for of one columnar
	// image over a run of the bucket's frames in bucket order, imgRun (all
	// of them, those still iterating, or one), laid out frame after frame:
	// imgOff[i] is the first image row of imgRun[i] and the last entry is
	// the row count, and image row i is bucket row imgRows[i] (imgLo+i when
	// imgRows is nil). Keys never change, so only an Insert (the row set
	// and the offsets changed) or another run drops the cache; measure
	// columns are the vectors themselves, read anew for each image. A
	// bucket is evaluated by exactly one PE, which makes the cache
	// race-free.
	img     []*colstore.Column
	imgRun  []*Frame
	imgOff  []int
	imgLo   int
	imgRows []int32
}

// nk is the number of key (PBY and DBY) columns.
func (b *bucket) nk() int { return b.m.NPby + b.m.NDby }

// nRows is the number of bucket rows.
func (b *bucket) nRows() int {
	if b.store != nil {
		return len(b.ids)
	}
	return len(b.in) + len(b.ins)/b.nk()
}

// valueAt is column col of bucket row r.
func (b *bucket) valueAt(r, col int) types.Value {
	if b.store != nil {
		return b.store.Get(b.ids[r])[col]
	}
	nk := b.nk()
	if col >= nk {
		if v := b.meas[col-nk]; v != nil {
			return v.value(r)
		}
		if r >= len(b.in) {
			return types.Null // an inserted cell's measures start NULL
		}
	}
	if r < len(b.in) {
		return b.src.value(b.in[r], col)
	}
	return b.ins[(r-len(b.in))*nk+col]
}

// vec returns measure k's vector, gathering it from the input on first use.
func (b *bucket) vec(k int) *measVec {
	if b.meas[k] == nil {
		b.meas[k] = newMeasVec(b.src, b.in, b.nk()+k, b.nRows()-len(b.in), b.src.kinds[k])
	}
	return b.meas[k]
}

// span is a list of bucket rows: rows, or when rows is nil the n rows from
// lo. A row of -1 reads NULL.
type span struct {
	lo, n int
	rows  []int32
}

func (s span) at(i int) int {
	if s.rows != nil {
		return int(s.rows[i])
	}
	return s.lo + i
}

// column returns column col over the span; a key column's is nil when its
// values there mix kinds, a measure's never is. A key column is gathered
// from the input image wherever every row of the span is a built one and
// the input has the column; a measure column is its vector's (materialised
// when materialise is set or its input values convert, else gathered from
// the input while no rule wrote it). What neither serves — inserted keys, a
// column with no input image, a budgeted bucket's rows — is read value by
// value.
func (b *bucket) column(col int, s span, materialise bool) *colstore.Column {
	nk := b.nk()
	if b.store == nil && col >= nk && (b.meas[col-nk] != nil || materialise || b.src.conv[col]) {
		v := b.vec(col - nk)
		if s.rows == nil {
			return v.column(s.lo, s.n)
		}
		return v.gather(s.rows)
	}
	if c := b.src.cols[col]; c != nil && b.store == nil {
		if idx, ok := b.imageRows(s); ok {
			return colstore.Gather(c, idx)
		}
	}
	vals := make([]types.Value, s.n)
	for i := range vals {
		if r := s.at(i); r >= 0 {
			vals[i] = b.valueAt(r, col)
		}
	}
	return colstore.FromValues(vals, false)
}

// imageRows maps the span to input image rows (-1 stays -1), ok=false
// when it holds an inserted row.
func (b *bucket) imageRows(s span) ([]int32, bool) {
	idx := make([]int32, s.n)
	for i := range idx {
		r := s.at(i)
		switch {
		case r >= len(b.in):
			return nil, false
		case r < 0:
			idx[i] = -1
		default:
			idx[i] = int32(b.src.imgRow(b.in[r]))
		}
	}
	return idx, true
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
	// base is the bucket row of the frame's first built row: position pos <
	// builtLen is bucket row base+pos.
	base int
	// ext holds the bucket rows of the cells rules inserted: position
	// builtLen+k is bucket row ext[k].
	ext []int32
	// cells is the frame's cell table: an open-addressed table from a DBY
	// word (bucket.keys) to the row's position. The build carves every
	// frame's table out of one slab per bucket.
	cells []wordkey.Slot
	// cellsShared marks cells as shared with another structure
	// (CloneForReuse): read freely, copy before the first Insert.
	cellsShared bool
	// in holds the input position of each row the build loaded (a slice
	// of the bucket's one array, 4 bytes a row); the rows a rule inserts
	// have none.
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
func (f *Frame) MarkUpdated(pos int) { f.updated.set(pos, f.Len()) }

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

// Rows boxes every row back out in deterministic order: bucket index, frame
// discovery order, row insertion order — the order output hands out input
// positions and measure values in. updatedOnly restricts the output to rows
// assigned or created by rules (RETURN UPDATED ROWS).
func (ps *PartitionSet) Rows(updatedOnly bool) []types.Row { return ps.rows(updatedOnly, 1) }

// rows is Rows with the buckets boxed by up to workers goroutines, a column
// at a time, into one flat backing.
func (ps *PartitionSet) rows(updatedOnly bool, workers int) []types.Row {
	spans, n := ps.spans(updatedOnly)
	if n == 0 {
		return nil
	}
	w := ps.model.Schema.Len()
	flat := make([]types.Value, n*w)
	out := make([]types.Row, n)
	for i := range out {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	offs := make([]int, len(spans)+1)
	for bi, s := range spans {
		offs[bi+1] = offs[bi] + s.n
	}
	runBuildTasks(workers, len(ps.buckets), func(bi int) {
		b := ps.buckets[bi]
		for i, row := range out[offs[bi]:offs[bi+1]] {
			b.rowInto(spans[bi].at(i), row)
		}
	})
	return out
}

// spans returns, per bucket, its output rows as a span of bucket rows, and
// their total.
func (ps *PartitionSet) spans(updatedOnly bool) ([]span, int) {
	spans := make([]span, len(ps.buckets))
	total := 0
	for bi, b := range ps.buckets {
		if !updatedOnly && b.nRows() == len(b.in) {
			// Every row built, every row out: the bucket is its own output
			// order.
			spans[bi] = span{n: len(b.in)}
		} else {
			var rows []int32
			for _, f := range b.frames {
				for pos := range f.Len() {
					if !updatedOnly || f.updated.has(pos) {
						rows = append(rows, int32(f.brow(pos)))
					}
				}
			}
			spans[bi] = span{n: len(rows), rows: rows}
		}
		total += spans[bi].n
	}
	return spans, total
}

// rowInto boxes bucket row r into dst.
func (b *bucket) rowInto(r int, dst types.Row) {
	if b.store != nil {
		copy(dst, b.store.Get(b.ids[r]))
		return
	}
	for col := range dst {
		dst[col] = b.valueAt(r, col)
	}
}

// Stats sums the I/O statistics of every bucket store.
func (ps *PartitionSet) Stats() blockstore.Stats {
	var s blockstore.Stats
	for _, b := range ps.buckets {
		if b.store != nil {
			s.Add(b.store.Stats())
		}
	}
	return s
}

// Close releases every bucket store.
func (ps *PartitionSet) Close() error {
	var err error
	for _, b := range ps.buckets {
		if b.store == nil {
			continue
		}
		if cerr := b.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// --- Frame operations ---

// Len returns the number of rows currently in the frame.
func (f *Frame) Len() int { return f.builtLen + len(f.ext) }

// PBY returns the partition's PBY values.
func (f *Frame) PBY() []types.Value { return f.pby }

// brow is the bucket row of position pos.
func (f *Frame) brow(pos int) int {
	if pos < f.builtLen {
		return f.base + pos
	}
	return int(f.ext[pos-f.builtLen])
}

// value is column col of the row at pos: a per-cell read, most often of a
// measure's vector.
func (f *Frame) value(pos, col int) types.Value { return f.b.valueAt(f.brow(pos), col) }

// Row returns the row at pos for reading: a budgeted bucket's stored row
// (buf may then be nil), otherwise the row boxed into buf, a row of the
// working schema's width. The result must not be retained across other
// frame operations: a write may change it (a stored row) or leave it stale
// (a boxed one).
func (f *Frame) Row(pos int, buf types.Row) types.Row {
	if b := f.b; b.store != nil {
		return b.store.Get(b.ids[f.brow(pos)])
	}
	f.b.rowInto(f.brow(pos), buf)
	return buf
}

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

// SetMeasure assigns one measure of the row at pos and reports whether the
// stored value changed: an equal value is not written. The value is
// converted to the measure's kind first (bucket.admit), a KindError when it
// does not convert. Every per-cell engine write goes through here — into the
// measure's vector (created on the column's first write), or through a
// budgeted bucket's Store.SetCol, which marks the block dirty — so nothing
// is allocated per write; a row obtained from Row or Each before the call
// may be stale after it.
func (f *Frame) SetMeasure(pos, col int, v types.Value) (bool, error) {
	b := f.b
	r, k := f.brow(pos), col-b.nk()
	v, err := b.admit(k, v)
	if err != nil {
		return false, err
	}
	if b.store == nil {
		return b.vec(k).set(r, v), nil
	}
	if old := b.store.Get(b.ids[r])[col]; old.K == v.K && types.Equal(old, v) {
		return false, nil
	}
	b.store.SetCol(b.ids[r], col, v)
	return true, nil
}

// SetMeasureBulk writes one measure column for a batch of frame positions,
// pos[i] taking slot k0+i of a rule's result vector: the columnar writeback
// of a vectorized rule. Positions are written in slice order — the same cell
// order the per-cell path produces — with the same
// mark-updated-then-convert-compare-then-write semantics as a single
// assignment, compared and written on the measure vector's typed payload.
// The call may overwrite pos.
func (f *Frame) SetMeasureBulk(pos []int32, col int, vec *eval.ExprVec, k0 int) error {
	for _, p := range pos {
		f.MarkUpdated(int(p))
	}
	b := f.b
	if b.store != nil {
		for i, p := range pos {
			if _, err := f.SetMeasure(int(p), col, vec.BoxValue(k0+i)); err != nil {
				return err
			}
		}
		return nil
	}
	k := col - b.nk()
	v := b.vec(k)
	got := vec.Kind
	if got != types.KindNull && vec.Nulls != nil && !slices.Contains(vec.Nulls[k0:k0+len(pos)], false) {
		got = types.KindNull // no value to store, so none to convert
	}
	if err := b.admitKind(k, got); err != nil {
		return err
	}
	if len(f.ext) > 0 {
		rows := make([]int32, len(pos))
		for i, p := range pos {
			rows[i] = int32(f.brow(int(p)))
		}
		pos = rows
	} else if f.base != 0 {
		for i := range pos {
			pos[i] += int32(f.base)
		}
	}
	v.setBulk(pos, vec, k0)
	return nil
}

// Insert adds a new row for the given dimension values: PBY columns take
// the partition's values, DBY columns the target values, measures NULL. It
// returns the new row's position.
func (f *Frame) Insert(m *Model, dims []types.Value) int {
	b := f.b
	w := b.wordGrow(dims)
	r := b.nRows()
	if b.store != nil {
		row := make(types.Row, m.Schema.Len()) // alloc-ok: a budgeted bucket stores every row it inserts
		copy(row, f.pby)
		copy(row[m.NPby:], dims)
		b.ids = append(b.ids, b.store.Append(row))
	} else {
		b.ins = append(append(b.ins, f.pby...), dims...)
		for _, v := range b.meas {
			if v != nil {
				v.appendNull()
			}
		}
	}
	f.ext = append(f.ext, int32(r))
	pos := f.Len() - 1
	if f.cellsShared || 2*f.Len() > len(f.cells) {
		f.cells = wordkey.Rehash(f.cells, f.Len()) // alloc-ok: a shared table's first Insert, or a doubling
		f.cellsShared = false
	}
	wordkey.Put(f.cells, w, pos)
	b.img = nil
	return pos
}

// Each scans the frame's rows in insertion order, each boxed into buf (see
// Row). The callback's row must not be retained. Rows inserted during the
// scan are not visited.
func (f *Frame) Each(buf types.Row, fn func(pos int, row types.Row) bool) {
	n := f.Len()
	for pos := 0; pos < n; pos++ {
		if !fn(pos, f.Row(pos, buf)) {
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
