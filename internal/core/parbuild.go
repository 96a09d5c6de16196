package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// Parallel partition build. The access structure is built in two phases that
// mirror the serial two-pass loop but decompose along axes with no shared
// state:
//
//  1. Scan: workers take morsel-sized row ranges in input order and encode
//     every row's PBY and DBY keys into chunk-local arenas, folding the
//     first-level bucket hash into the same FNV-1a pass that encodes the key
//     bytes. Chunks only write their own arrays, so this phase needs no
//     locking at all.
//  2. Assemble: workers take whole first-level buckets. Each bucket walks the
//     chunks in input order, creating frames in first-seen order and
//     collecting its rows' positions, then sorts each frame's rows by
//     second-level hash and appends them to the bucket's private store.
//     Buckets share nothing (each owns its store, frame list and key map),
//     so this phase is also lock-free.
//
// Because chunk boundaries are a pure function of the input size and phase 2
// visits rows in global input order regardless of which worker scanned them,
// the resulting PartitionSet is byte-identical to the serial build for any
// worker count.

// buildMorsel is the number of rows one scan task encodes at a time.
const buildMorsel = 4096

// BuildOptions selects the build parallelism and how rows enter the stores.
type BuildOptions struct {
	// Workers is the number of build workers; <=1 builds serially. The
	// output is identical for every value.
	Workers int
	// Cols, when non-nil, supplies columnar vectors for the working
	// relation so the scan phase encodes PBY/DBY keys straight from typed
	// columns. The key bytes are identical to the row path's
	// (colstore.Column.AppendKey is pinned to types.AppendKey).
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

// appendKey appends the key bytes for working-relation position ri,
// ordinal ord, preferring the typed vector when one is available.
func (cs *ColSource) appendKey(buf []byte, rows []types.Row, ri, ord int) []byte {
	if cs != nil && ord < len(cs.Cols) && cs.Cols[ord] != nil {
		r := ri
		if cs.RowIdx != nil {
			r = int(cs.RowIdx[ri])
		}
		return cs.Cols[ord].AppendKey(buf, r)
	}
	return types.AppendKey(buf, rows[ri][ord]) // interp-ok: row fallback
}

// buildChunk holds one scan task's encoded keys. Key bytes live in flat
// arenas addressed by prefix offsets; the arenas stay alive until assembly
// finishes, so frame entries can alias them instead of copying.
type buildChunk struct {
	lo      int     // global index of the chunk's first row
	bucket  []int32 // first-level bucket per row
	pbyOff  []int32 // prefix offsets into pbyFlat (len rows+1)
	pbyFlat []byte
	dbyOff  []int32 // prefix offsets into dbyFlat (len rows+1)
	dbyFlat []byte
	dbyHash []uint32 // second-level hash per row
	// bytes sums blockstore.RowBytes per first-level bucket: the scan walks
	// the input in order, the cheapest place to look at every row once.
	bytes []int64
}

// frameEntry is one row routed to a frame: its global input position, its
// second-level hash, and its encoded DBY key (aliasing the chunk arena).
type frameEntry struct {
	ri   int
	hash uint32
	key  []byte
}

// BuildPartitionsOpts loads rows (working-schema layout) into the two-level
// access structure. The paper requires DBY columns to uniquely identify a row
// within each partition; duplicates are an error.
//
// Rows are appended to each bucket's store clustered by frame ("the hash
// access structure maintains records within a hash bucket clustered on PBY
// and DBY column values"), so evaluating one spreadsheet partition touches
// a contiguous run of blocks — the locality Fig. 5 depends on.
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
	nChunks := (len(rows) + buildMorsel - 1) / buildMorsel
	chunks := make([]*buildChunk, nChunks)
	runBuildTasks(o.Workers, nChunks, func(ci int) {
		lo := ci * buildMorsel
		hi := min(lo+buildMorsel, len(rows))
		chunks[ci] = scanChunk(m, rows, lo, hi, nBuckets, o.Cols)
	})
	errs := make([]error, nBuckets)
	runBuildTasks(o.Workers, nBuckets, func(bi int) {
		errs[bi] = assembleBucket(m, ps.buckets[bi], rows, chunks, int32(bi), o)
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

// scanChunk encodes rows [lo,hi) into a chunk arena. Both hashes are folded
// into the same pass that appends the key bytes, so each key byte is touched
// exactly once.
func scanChunk(m *Model, rows []types.Row, lo, hi, nBuckets int, cols *ColSource) *buildChunk {
	n := hi - lo
	c := &buildChunk{
		lo:      lo,
		bucket:  make([]int32, n),
		pbyOff:  make([]int32, n+1),
		dbyOff:  make([]int32, n+1),
		dbyHash: make([]uint32, n),
		bytes:   make([]int64, nBuckets),
		// Sized for a typical key (types.Key's own guess); append regrows
		// past it.
		pbyFlat: make([]byte, 0, n*16*m.NPby),
		dbyFlat: make([]byte, 0, n*16*m.NDby),
	}
	for i := 0; i < n; i++ {
		ri := lo + i
		h := uint32(fnvOffset32)
		for p := 0; p < m.NPby; p++ {
			pre := len(c.pbyFlat)
			c.pbyFlat = cols.appendKey(c.pbyFlat, rows, ri, p)
			h = hashExtend(h, c.pbyFlat[pre:])
		}
		c.pbyOff[i+1] = int32(len(c.pbyFlat))
		c.bucket[i] = int32(int(h) % nBuckets)
		c.bytes[c.bucket[i]] += blockstore.RowBytes(rows[ri])
		h = fnvOffset32
		for d := 0; d < m.NDby; d++ {
			pre := len(c.dbyFlat)
			c.dbyFlat = cols.appendKey(c.dbyFlat, rows, ri, m.NPby+d)
			h = hashExtend(h, c.dbyFlat[pre:])
		}
		c.dbyOff[i+1] = int32(len(c.dbyFlat))
		c.dbyHash[i] = h
	}
	return c
}

// assembleBucket routes the bucket's rows to frames (first-seen order, input
// order within each frame), then appends each frame's rows to the bucket
// store in second-level hash order so partitions stay block-clustered — the
// same layout the serial build produces ("the hash access structure maintains
// records within a hash bucket clustered on PBY and DBY column values").
//
// Allocation is per bucket, not per frame or per row: the routed entries,
// the Frame structs, the row ids and the index keys each live in one flat
// block that the frames slice up (a statement can have thousands of
// five-row partitions), so a frame costs its hash table and nothing else.
func assembleBucket(m *Model, b *bucket, rows []types.Row, chunks []*buildChunk, bi int32, o BuildOptions) error {
	// Pass 1: discover frames and count their rows.
	byKey := make(map[string]int32) // PBY key -> frame number
	var (
		frameOf []int32 // frame number of each bucket row, in input order
		fill    []int32 // rows per frame; pass 2 reuses it as a write cursor
		first   []int   // input position of each frame's first row
	)
	for _, c := range chunks {
		for i, cb := range c.bucket {
			if cb != bi {
				continue
			}
			pk := c.pbyFlat[c.pbyOff[i]:c.pbyOff[i+1]]
			fi, seen := byKey[string(pk)]
			if !seen {
				fi = int32(len(fill))
				byKey[string(pk)] = fi
				fill = append(fill, 0)
				first = append(first, c.lo+i)
			}
			frameOf = append(frameOf, fi)
			fill[fi]++
		}
	}
	// Pass 2: lay the entries out frame by frame.
	off := make([]int32, len(fill)+1)
	for fi, n := range fill {
		off[fi+1] = off[fi] + n
		fill[fi] = off[fi]
	}
	ents := make([]frameEntry, len(frameOf))
	nkey, k := 0, 0
	for _, c := range chunks {
		for i, cb := range c.bucket {
			if cb != bi {
				continue
			}
			fi := frameOf[k]
			k++
			key := c.dbyFlat[c.dbyOff[i]:c.dbyOff[i+1]]
			ents[fill[fi]] = frameEntry{ri: c.lo + i, hash: c.dbyHash[i], key: key}
			fill[fi]++
			nkey += len(key)
		}
	}

	frames := make([]Frame, len(first))
	b.frames = make([]*Frame, len(first))
	ids := make([]blockstore.RowID, 0, len(ents))
	var keys strings.Builder // never regrows: every index key is a slice of one string
	keys.Grow(nkey)
	var order []uint64 // sort scratch, reused across frames
	ms, _ := b.store.(*blockstore.MemStore)
	if ms != nil {
		ms.Reserve(len(ents))
	}
	b.bytes = 256 + int64(len(frames))*128 + int64(len(ents))*(16+48) + int64(nkey)
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
		es := ents[off[fi]:off[fi+1]]
		// Second-level hash order, ties in input order — exactly the serial
		// build's stable order-index sort, as a plain sort of (hash, input
		// rank) words.
		order = order[:0]
		for i, e := range es {
			order = append(order, uint64(e.hash)<<32|uint64(i))
		}
		slices.Sort(order)
		f.index = make(map[string]int, len(es))
		base := len(ids)
		for _, w := range order {
			e := es[uint32(w)]
			pos := len(ids) - base
			at := keys.Len()
			keys.Write(e.key)
			dk := keys.String()[at:]
			// One probe: a duplicate key overwrites instead of growing.
			f.index[dk] = pos
			if len(f.index) != pos+1 {
				return fmt.Errorf("spreadsheet: DBY columns (%s) do not uniquely identify row %v within its partition",
					joinNames(m.DimNames()), rows[e.ri][m.NPby:m.NPby+m.NDby])
			}
			r := rows[e.ri]
			if !o.ShareRows {
				r = r.Clone()
			}
			ids = append(ids, b.store.Append(r))
		}
		// Capacity clipped: an Insert appends into the frame's own copy.
		f.ids = ids[base:len(ids):len(ids)]
		f.builtLen = len(f.ids)
	}
	if o.ShareRows { // only ever set for MemStore buckets
		ms.ShareAll()
	}
	return nil
}
