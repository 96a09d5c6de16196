package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wordkey"
)

// Parallel partition build. The access structure is built in three phases
// that decompose along axes with no shared state:
//
//  0. Domains: every PBY and DBY dimension gets its domain (cellkeys.go) —
//     a dictionary-coded column's codes, an INT column's range, or one
//     serial pass numbering its values — and the structure its two word
//     layouts.
//  1. Scan: workers take morsel-sized row ranges in input order and compute
//     every row's PBY and DBY words, a dimension at a time, into chunk-local
//     arrays. A chunk finds its rows' frames in a chunk-local word table and
//     hashes the PBY values of each frame it discovers once, to choose its
//     first-level bucket. Chunks only write their own arrays, so this phase
//     needs no locking at all.
//  2. Assemble: workers take whole first-level buckets. Each bucket walks the
//     chunks in input order, finding frames through a word table in
//     first-seen order and collecting its rows' positions, then appends each
//     frame's rows to the bucket's private store in input order and fills the
//     frame's cell table. Buckets share nothing but the read-only domains, so
//     this phase is also lock-free.
//
// Because chunk boundaries are a pure function of the input size and phase 2
// visits rows in global input order regardless of which worker scanned them,
// the resulting PartitionSet is identical to the serial build for any worker
// count.

// buildMorsel is the number of rows one scan task encodes at a time.
const buildMorsel = 4096

// BuildOptions selects the build parallelism and how rows enter the stores.
type BuildOptions struct {
	// Workers is the number of build workers; <=1 builds serially. The
	// output is identical for every value.
	Workers int
	// Cols, when non-nil, supplies columnar vectors for the working
	// relation, so a dictionary-coded dimension keys by its codes and an INT
	// one by arithmetic instead of numbering boxed row values.
	Cols *ColSource
	// ShareRows stores input rows by reference instead of cloning them into
	// the bucket stores, and hands stored rows out of PartitionSet.Rows by
	// reference too (the unbudgeted in-memory fast path). Safe because a
	// MemStore holding shared rows copies each one on its first write and
	// only then writes in place (blockstore.MemStore.ShareAll), so the input
	// relation never changes; the build ignores the option for any other
	// store, which takes ownership of the rows it is handed.
	ShareRows bool
}

// ColSource maps working-schema ordinals to columnar vectors. Cols is
// indexed by ordinal (a nil entry falls back to the boxed row value);
// RowIdx maps working-relation positions to vector rows (nil = identity).
type ColSource struct {
	Cols   []*colstore.Column
	RowIdx []int32
}

// column returns ordinal ord's vector, nil when there is none.
func (cs *ColSource) column(ord int) *colstore.Column {
	if cs != nil && ord < len(cs.Cols) {
		return cs.Cols[ord]
	}
	return nil
}

// appendKey appends the key bytes for working-relation position ri,
// ordinal ord, preferring the typed vector when one is available.
func (cs *ColSource) appendKey(buf []byte, rows []types.Row, ri, ord int) []byte {
	if c := cs.column(ord); c != nil {
		r := ri
		if cs.RowIdx != nil {
			r = int(cs.RowIdx[ri])
		}
		return c.AppendKey(buf, r)
	}
	return types.AppendKey(buf, rows[ri][ord]) // interp-ok: row fallback
}

// reader builds working-schema column ord's domain over the input, reading
// the typed vector when there is one.
func (cs *ColSource) reader(rows []types.Row, ord int) wordkey.Reader {
	var ridx []int32
	if cs != nil {
		ridx = cs.RowIdx
	}
	return wordkey.NewReader(cs.column(ord), ridx, rows, len(rows), ord)
}

// buildKeys holds a build's domains and word layouts.
type buildKeys struct {
	pby, dby       []wordkey.Reader
	pbyLay, dbyLay *wordkey.Layout
	// pbyWords and dbyWords hold every input row's word when the layout is
	// byte-keyed (interned serially up front); nil when packed.
	pbyWords, dbyWords []uint64
}

func newBuildKeys(m *Model, rows []types.Row, cs *ColSource) *buildKeys {
	bk := &buildKeys{}
	pw := make([]uint8, m.NPby)
	for p := range pw {
		rd := cs.reader(rows, p)
		bk.pby = append(bk.pby, rd)
		pw[p] = wordkey.ExactWidth(rd.Dom.Size())
	}
	dw := make([]uint8, m.NDby)
	for d := range dw {
		rd := cs.reader(rows, m.NPby+d)
		bk.dby = append(bk.dby, rd)
		dw[d] = wordkey.FieldWidth(rd.Dom.Size())
	}
	bk.pbyLay, bk.dbyLay = wordkey.NewLayout(pw), wordkey.NewLayout(dw)
	if !bk.pbyLay.Packed() {
		bk.pbyWords = wordkey.InternRows(rows, len(rows), bk.pby, bk.pbyLay)
	}
	if !bk.dbyLay.Packed() {
		bk.dbyWords = wordkey.InternRows(rows, len(rows), bk.dby, bk.dbyLay)
	}
	return bk
}

// buildChunk holds one scan task's words and the frames it discovered.
type buildChunk struct {
	lo    int      // global index of the chunk's first row
	frame []int32  // chunk-local frame of each row
	dby   []uint64 // cell word of each row
	// Per chunk-local frame, in discovery order: its PBY word, its
	// first-level bucket and its first row (chunk-relative).
	fword   []uint64
	fbucket []int32
	ffirst  []int32
	// bytes sums blockstore.RowBytes per first-level bucket: the scan walks
	// the input in order, the cheapest place to look at every row once.
	bytes []int64
}

// BuildPartitionsOpts loads rows (working-schema layout) into the two-level
// access structure. The paper requires DBY columns to uniquely identify a row
// within each partition; duplicates are an error.
//
// Rows are appended to each bucket's store clustered by frame ("the hash
// access structure maintains records within a hash bucket clustered on PBY
// and DBY column values"), so evaluating one spreadsheet partition touches
// a contiguous run of blocks — the locality Fig. 5 depends on. Within a
// frame rows keep input order.
func BuildPartitionsOpts(m *Model, rows []types.Row, nBuckets int, newStore StoreFactory, o BuildOptions) (*PartitionSet, error) {
	if nBuckets < 1 {
		nBuckets = 1
	}
	ps := &PartitionSet{model: m}
	ps.buckets = make([]*bucket, nBuckets)
	for i := range ps.buckets {
		ps.buckets[i] = &bucket{store: newStore()}
		if _, mem := ps.buckets[i].store.(*blockstore.MemStore); !mem {
			o.ShareRows = false
		}
	}
	ps.shareRows = o.ShareRows
	bk := newBuildKeys(m, rows, o.Cols)
	nChunks := (len(rows) + buildMorsel - 1) / buildMorsel
	chunks := make([]*buildChunk, nChunks)
	runBuildTasks(o.Workers, nChunks, func(ci int) {
		lo := ci * buildMorsel
		hi := min(lo+buildMorsel, len(rows))
		chunks[ci] = scanChunk(m, rows, lo, hi, nBuckets, o.Cols, bk)
	})
	errs := make([]error, nBuckets)
	runBuildTasks(o.Workers, nBuckets, func(bi int) {
		b := ps.buckets[bi]
		b.keys = newCellKeys(m, bk)
		errs[bi] = assembleBucket(m, b, rows, chunks, int32(bi), o)
	})
	for _, err := range errs {
		if err != nil {
			// Lowest bucket index wins, matching the serial build's
			// bucket-order error. Release the stores: the caller never sees
			// the partial structure.
			ps.Close()
			return nil, err
		}
	}
	return ps, nil
}

// runBuildTasks runs fn(i) for every i in [0,n) across min(workers, n)
// goroutines (the caller is one of them). Tasks write disjoint output slots,
// so the only shared state is the claim counter.
func runBuildTasks(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	for {
		i := int(next.Add(1) - 1)
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// scanChunk computes rows [lo,hi)'s words and frames. The first-level
// bucket of a frame is the FNV-1a hash of its PBY values' key bytes —
// HashValue's function, a property of the values and not of this build's
// domains — computed once per frame the chunk discovers.
func scanChunk(m *Model, rows []types.Row, lo, hi, nBuckets int, cols *ColSource, bk *buildKeys) *buildChunk {
	n := hi - lo
	c := &buildChunk{
		lo:    lo,
		frame: make([]int32, n),
		dby:   make([]uint64, n),
		bytes: make([]int64, nBuckets),
	}
	scratch := make([]uint32, n)
	pw := make([]uint64, n)
	wordkey.RowWords(rows, bk.pby, bk.pbyLay, bk.pbyWords, lo, scratch, pw)
	wordkey.RowWords(rows, bk.dby, bk.dbyLay, bk.dbyWords, lo, scratch, c.dby)
	tbl := make([]wordkey.Slot, wordkey.TableSize(n))
	var key []byte
	for i, w := range pw {
		fi, seen := wordkey.Intern(tbl, w, len(c.fword))
		if !seen {
			h := uint32(fnvOffset32)
			for p := 0; p < m.NPby; p++ {
				key = cols.appendKey(key[:0], rows, lo+i, p)
				h = hashExtend(h, key)
			}
			c.fword = append(c.fword, w)
			c.fbucket = append(c.fbucket, int32(int(h)%nBuckets))
			c.ffirst = append(c.ffirst, int32(i))
		}
		c.frame[i] = int32(fi)
		c.bytes[c.fbucket[fi]] += blockstore.RowBytes(rows[lo+i])
	}
	return c
}

// assembleBucket routes the bucket's rows to frames (first-seen order, input
// order within each frame), appends each frame's rows to the bucket store
// in that order so partitions stay block-clustered, and fills each frame's
// cell table.
//
// Allocation is per bucket, not per frame or per row: the routed rows, the
// Frame structs, the row ids and the cell tables each live in one flat block
// that the frames slice up (a statement can have thousands of five-row
// partitions).
func assembleBucket(m *Model, b *bucket, rows []types.Row, chunks []*buildChunk, bi int32, o BuildOptions) error {
	// Pass 1: discover frames through a word table and count their rows.
	local := make([][]int32, len(chunks)) // chunk-local frame -> frame number, -1 elsewhere
	finder := make([]wordkey.Slot, wordkey.TableSize(16))
	var (
		fill  []int32 // rows per frame; pass 2 reuses it as a write cursor
		first []int   // input position of each frame's first row
	)
	for ci, c := range chunks {
		lm := make([]int32, len(c.fword))
		for lf, w := range c.fword {
			if c.fbucket[lf] != bi {
				lm[lf] = -1
				continue
			}
			fi, seen := wordkey.Find(finder, w)
			if !seen {
				fi = len(fill)
				if 2*(fi+1) > len(finder) {
					finder = wordkey.Rehash(finder, 2*(fi+1))
				}
				wordkey.Put(finder, w, fi)
				fill = append(fill, 0)
				first = append(first, c.lo+int(c.ffirst[lf]))
			}
			lm[lf] = int32(fi)
		}
		local[ci] = lm
		for _, lf := range c.frame {
			if fi := lm[lf]; fi >= 0 {
				fill[fi]++
			}
		}
	}
	// Pass 2: lay the rows out frame by frame, input order within each.
	off := make([]int32, len(fill)+1)
	slots := 0
	for fi, n := range fill {
		off[fi+1] = off[fi] + n
		fill[fi] = off[fi]
		slots += wordkey.TableSize(int(n))
	}
	nrows := int(off[len(fill)])
	ris := make([]int32, nrows)
	words := make([]uint64, nrows)
	for ci, c := range chunks {
		lm := local[ci]
		for i, lf := range c.frame {
			if fi := lm[lf]; fi >= 0 {
				ris[fill[fi]], words[fill[fi]] = int32(c.lo+i), c.dby[i]
				fill[fi]++
			}
		}
	}

	frames := make([]Frame, len(first))
	b.frames = make([]*Frame, len(first))
	ids := make([]blockstore.RowID, 0, nrows)
	slab := make([]wordkey.Slot, slots)
	ms, _ := b.store.(*blockstore.MemStore)
	if ms != nil {
		ms.Reserve(nrows)
	}
	b.bytes = 256 + int64(len(frames))*128 + int64(nrows)*(16+12) + int64(slots)*16
	for _, c := range chunks {
		b.bytes += c.bytes[bi]
	}
	for fi := range frames {
		f := &frames[fi]
		b.frames[fi] = f
		f.b, f.ord = b, fi
		// Input rows are never written (cloned below, or copied on first
		// write), so the frame can alias its first row's PBY prefix.
		f.pby = rows[first[fi]][:m.NPby:m.NPby]
		lo, hi := off[fi], off[fi+1]
		ts := wordkey.TableSize(int(hi - lo))
		f.cells, slab = slab[:ts:ts], slab[ts:]
		base := len(ids)
		for k := lo; k < hi; k++ {
			r := rows[ris[k]]
			if wordkey.Put(f.cells, words[k], len(ids)-base) {
				return fmt.Errorf("spreadsheet: DBY columns (%s) do not uniquely identify row %v within its partition",
					joinNames(m.DimNames()), r[m.NPby:m.NPby+m.NDby])
			}
			if !o.ShareRows {
				r = r.Clone() // alloc-ok: a store that does not share rows owns a copy of each (budgeted builds)
			}
			ids = append(ids, b.store.Append(r))
		}
		// Capacity clipped: an Insert appends into the frame's own copy.
		f.ids = ids[base:len(ids):len(ids)]
		f.builtLen = len(f.ids)
		f.in = ris[lo:hi:hi]
	}
	if o.ShareRows { // only ever set for MemStore buckets
		ms.ShareAll()
	}
	return nil
}
