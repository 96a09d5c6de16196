package core

import (
	"fmt"
	"slices"
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
//     first-seen order and collecting its rows' positions, lays the positions
//     out frame after frame (a budgeted bucket also appends each row, boxed,
//     to its private store) and fills each frame's cell table. Buckets share
//     nothing but the read-only input and domains, so this phase is also
//     lock-free.
//
// Because chunk boundaries are a pure function of the input size and phase 2
// visits rows in global input order regardless of which worker scanned them,
// the resulting PartitionSet is identical to the serial build for any worker
// count.

// buildMorsel is the number of rows one scan task encodes at a time.
const buildMorsel = 4096

// BuildOptions selects the build parallelism and the input's columns.
type BuildOptions struct {
	// Workers is the number of build workers; <=1 builds serially. The
	// output is identical for every value.
	Workers int
	// Cols, when non-nil, supplies columnar vectors for the working
	// relation: a dictionary-coded dimension keys by its codes and an INT
	// one by arithmetic instead of numbering boxed row values, and every
	// column it covers is read from it rather than from rows, which may then
	// be nil.
	Cols *ColSource
}

// ColSource maps working-schema ordinals to columnar vectors. Cols is
// indexed by ordinal (a nil entry, or one past its end, falls back to the
// boxed row value); RowIdx maps working-relation positions to vector rows
// (nil = identity).
type ColSource struct {
	Cols   []*colstore.Column
	RowIdx []int32
}

// len is the number of working-relation positions the source covers.
func (cs *ColSource) len() int {
	if cs.RowIdx != nil {
		return len(cs.RowIdx)
	}
	for _, c := range cs.Cols {
		if c != nil {
			return c.N
		}
	}
	return 0
}

// Covers reports whether cs has a vector for every one of the first width
// working columns, so the engine needs no boxed rows.
func (cs *ColSource) Covers(width int) bool {
	return cs != nil && len(cs.Cols) >= width && !slices.Contains(cs.Cols[:width], nil)
}

// appendKey appends the key bytes of column ord at working position p.
func (in *input) appendKey(buf []byte, p, ord int) []byte {
	if c := in.cols[ord]; c != nil {
		return c.AppendKey(buf, in.imgRow(int32(p)))
	}
	return types.AppendKey(buf, in.rows[p][ord]) // interp-ok: row fallback
}

// reader builds working-schema column ord's domain over the input, reading
// the typed vector when there is one.
func (in *input) reader(ord int) wordkey.Reader {
	return wordkey.NewReader(in.cols[ord], in.ridx, in.rows, in.n, ord)
}

// buildKeys holds a build's domains and word layouts.
type buildKeys struct {
	pby, dby       []wordkey.Reader
	pbyLay, dbyLay *wordkey.Layout
	// pbyWords and dbyWords hold every input row's word when the layout is
	// byte-keyed (interned serially up front); nil when packed.
	pbyWords, dbyWords []uint64
}

func newBuildKeys(m *Model, src *input) *buildKeys {
	bk := &buildKeys{}
	pw := make([]uint8, m.NPby)
	for p := range pw {
		rd := src.reader(p)
		bk.pby = append(bk.pby, rd)
		pw[p] = wordkey.ExactWidth(rd.Dom.Size())
	}
	dw := make([]uint8, m.NDby)
	for d := range dw {
		rd := src.reader(m.NPby + d)
		bk.dby = append(bk.dby, rd)
		dw[d] = wordkey.FieldWidth(rd.Dom.Size())
	}
	bk.pbyLay, bk.dbyLay = wordkey.NewLayout(pw), wordkey.NewLayout(dw)
	if !bk.pbyLay.Packed() {
		bk.pbyWords = wordkey.InternRows(src.rows, src.n, bk.pby, bk.pbyLay)
	}
	if !bk.dbyLay.Packed() {
		bk.dbyWords = wordkey.InternRows(src.rows, src.n, bk.dby, bk.dbyLay)
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
}

// BuildPartitionsOpts loads the working relation — rows, or the columns of
// o.Cols where it has them — into the two-level access structure. The paper
// requires DBY columns to uniquely identify a row within each partition;
// duplicates are an error.
//
// Each bucket's rows are clustered by frame ("the hash access structure
// maintains records within a hash bucket clustered on PBY and DBY column
// values"), so evaluating one spreadsheet partition touches a contiguous run
// of input positions, measure slots or store blocks — the locality Fig. 5
// depends on. Within a frame rows keep input order. newStore, when non-nil,
// gives every bucket a row store (a budgeted run); nil keeps the cells in
// measure vectors over the input.
func BuildPartitionsOpts(m *Model, rows []types.Row, nBuckets int, newStore StoreFactory, o BuildOptions) (*PartitionSet, error) {
	if nBuckets < 1 {
		nBuckets = 1
	}
	src, err := newInput(m, rows, o.Cols)
	if err != nil {
		return nil, err
	}
	if rows == nil && src.n > 0 && !o.Cols.Covers(m.Schema.Len()) {
		return nil, fmt.Errorf("core: no input rows, and the input image covers only part of the %d working columns", m.Schema.Len())
	}
	ps := &PartitionSet{model: m, src: src}
	ps.buckets = make([]*bucket, nBuckets)
	for i := range ps.buckets {
		b := &bucket{m: m, src: src}
		if newStore != nil {
			b.store = newStore()
		} else {
			b.meas = make([]*measVec, m.NMea)
		}
		ps.buckets[i] = b
	}
	bk := newBuildKeys(m, src)
	nChunks := (src.n + buildMorsel - 1) / buildMorsel
	chunks := make([]*buildChunk, nChunks)
	runBuildTasks(o.Workers, nChunks, func(ci int) {
		lo := ci * buildMorsel
		hi := min(lo+buildMorsel, src.n)
		chunks[ci] = scanChunk(m, src, lo, hi, nBuckets, bk)
	})
	errs := make([]error, nBuckets)
	runBuildTasks(o.Workers, nBuckets, func(bi int) {
		b := ps.buckets[bi]
		b.keys = newCellKeys(m, bk)
		errs[bi] = assembleBucket(m, b, chunks, int32(bi))
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
func scanChunk(m *Model, src *input, lo, hi, nBuckets int, bk *buildKeys) *buildChunk {
	n := hi - lo
	c := &buildChunk{
		lo:    lo,
		frame: make([]int32, n),
		dby:   make([]uint64, n),
	}
	scratch := make([]uint32, n)
	pw := make([]uint64, n)
	wordkey.RowWords(src.rows, bk.pby, bk.pbyLay, bk.pbyWords, lo, scratch, pw)
	wordkey.RowWords(src.rows, bk.dby, bk.dbyLay, bk.dbyWords, lo, scratch, c.dby)
	// The frame table grows with the frames found, which are usually far
	// fewer than the chunk's rows.
	tbl := make([]wordkey.Slot, wordkey.TableSize(16))
	var key []byte
	for i, w := range pw {
		if nf := len(c.fword) + 1; 2*nf > len(tbl) {
			tbl = wordkey.Rehash(tbl, 2*nf)
		}
		fi, seen := wordkey.Intern(tbl, w, len(c.fword))
		if !seen {
			h := uint32(fnvOffset32)
			for p := 0; p < m.NPby; p++ {
				key = src.appendKey(key[:0], lo+i, p)
				h = hashExtend(h, key)
			}
			c.fword = append(c.fword, w)
			c.fbucket = append(c.fbucket, int32(int(h)%nBuckets))
			c.ffirst = append(c.ffirst, int32(i))
		}
		c.frame[i] = int32(fi)
	}
	return c
}

// assembleBucket routes the bucket's rows to frames (first-seen order, input
// order within each frame), lays their input positions out frame after frame
// — the bucket's rows — and fills each frame's cell table. A budgeted bucket
// also appends each row, boxed, to its store in that order, so partitions
// stay block-clustered.
//
// Allocation is per bucket, not per frame or per row: the input positions,
// the Frame structs, their PBY values and the cell tables each live in one
// flat block that the frames slice up (a statement can have thousands of
// five-row partitions).
func assembleBucket(m *Model, b *bucket, chunks []*buildChunk, bi int32) error {
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
	slab := make([]wordkey.Slot, slots)
	pbys := make([]types.Value, len(first)*m.NPby)
	src := b.src
	b.in = ris
	w := m.Schema.Len()
	if b.store != nil {
		b.ids = make([]blockstore.RowID, 0, nrows)
	}
	// Each row's input position, plus what the row pins: its boxed input
	// row where the input has rows, a row boxed into the store (less string
	// payloads) for a budgeted bucket without them, else a word of each
	// image column.
	b.bytes = 256 + int64(len(frames))*int64(128+40*m.NPby) + int64(nrows)*(4+12) + int64(slots)*16
	switch {
	case src.rows != nil:
		for _, p := range ris {
			b.bytes += blockstore.RowBytes(src.rows[p])
		}
	case b.store != nil:
		b.bytes += int64(nrows) * int64(24+40*w)
	default:
		b.bytes += int64(nrows) * int64(8*w)
	}
	for fi := range frames {
		f := &frames[fi]
		b.frames[fi] = f
		f.b, f.ord = b, fi
		f.pby = pbys[fi*m.NPby : (fi+1)*m.NPby : (fi+1)*m.NPby]
		for p := range f.pby {
			f.pby[p] = src.value(int32(first[fi]), p)
		}
		lo, hi := off[fi], off[fi+1]
		ts := wordkey.TableSize(int(hi - lo))
		f.cells, slab = slab[:ts:ts], slab[ts:]
		for k := lo; k < hi; k++ {
			if wordkey.Put(f.cells, words[k], int(k-lo)) {
				dims := make(types.Row, m.NDby) // alloc-ok: once, for the duplicate-key error
				for d := range dims {
					dims[d] = src.value(ris[k], m.NPby+d)
				}
				return fmt.Errorf("spreadsheet: DBY columns (%s) do not uniquely identify row %v within its partition",
					joinNames(m.DimNames()), dims)
			}
			if b.store != nil {
				row := make(types.Row, w) // alloc-ok: a budgeted bucket's store owns a copy of each row
				for col := range row {
					row[col] = src.value(ris[k], col)
				}
				b.ids = append(b.ids, b.store.Append(row))
			}
		}
		f.base, f.builtLen = int(lo), int(hi-lo)
		// Capacity clipped: the frame never appends to the bucket's array.
		f.in = ris[lo:hi:hi]
	}
	return nil
}
