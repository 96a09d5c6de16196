// Package blockstore provides the row storage behind the spreadsheet
// clause's hash access structure.
//
// The paper (§5) builds a two-level hash structure and, when a spreadsheet
// partition does not fit in memory, degrades to "a disk based hash table
// employing a weighted LRU scheme for block replacement, and pointer
// swizzling to make references lightweight". This package implements that
// storage layer: rows live in fixed-capacity blocks; a byte budget bounds
// resident blocks; over-budget blocks are evicted to a spill file under a
// weighted-LRU policy; and rows are addressed by stable (block, slot) RowIDs
// — the moral equivalent of swizzled pointers. I/O counters feed the
// memory-scaling experiment (Fig. 5).
package blockstore

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// RowID is a stable handle to a stored row.
type RowID struct {
	Block int32
	Slot  int32
}

// Store abstracts row storage so the spreadsheet engine runs unchanged over
// the unbounded in-memory store and the budgeted spilling store.
type Store interface {
	// Append adds a row and returns its handle.
	Append(row types.Row) RowID
	// Get returns the row for reading. The result must not be retained
	// across other store calls (spilling stores may recycle block memory, and
	// SetCol may move a row) and must not be written through: the store may
	// be sharing it (see MemStore) and a spilling store must see every write
	// to mark the block dirty. Writers use SetCol or Set.
	Get(id RowID) types.Row
	// Set replaces the row; the store owns the new one from here on.
	Set(id RowID, row types.Row)
	// SetCol overwrites one value of the stored row in place.
	SetCol(id RowID, col int, v types.Value)
	// Len returns the number of stored rows.
	Len() int
	// Stats returns cumulative I/O statistics.
	Stats() Stats
	// Close releases any spill resources.
	Close() error
}

// Stats counts block-level I/O performed by a store.
type Stats struct {
	BlockLoads      int64 // blocks read back from spill
	BlockEvictions  int64 // blocks written out
	BytesSpilled    int64
	BytesLoaded     int64
	SpillWrites     int64 // physical pwrite calls issued to the spill file
	CoalescedBlocks int64 // dirty blocks folded into an adjacent block's pwrite
	PrefetchHits    int64 // block loads served by the sequential read-ahead buffer
}

// Add accumulates another store's statistics into s.
func (s *Stats) Add(o Stats) {
	s.BlockLoads += o.BlockLoads
	s.BlockEvictions += o.BlockEvictions
	s.BytesSpilled += o.BytesSpilled
	s.BytesLoaded += o.BytesLoaded
	s.SpillWrites += o.SpillWrites
	s.CoalescedBlocks += o.CoalescedBlocks
	s.PrefetchHits += o.PrefetchHits
}

// counters is the store-internal mutable form of Stats. Every field is an
// atomic so that Stats() is safe to call concurrently with Append/Get/Set —
// including from outside the store mutex — and so the background spill
// writer and prefetcher can report I/O without taking that mutex. The
// snapshot loads each counter atomically; counters are monotonic, so the
// snapshot is a consistent lower bound of the true totals at return time.
type counters struct {
	blockLoads      atomic.Int64
	blockEvictions  atomic.Int64
	bytesSpilled    atomic.Int64
	bytesLoaded     atomic.Int64
	spillWrites     atomic.Int64
	coalescedBlocks atomic.Int64
	prefetchHits    atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		BlockLoads:      c.blockLoads.Load(),
		BlockEvictions:  c.blockEvictions.Load(),
		BytesSpilled:    c.bytesSpilled.Load(),
		BytesLoaded:     c.bytesLoaded.Load(),
		SpillWrites:     c.spillWrites.Load(),
		CoalescedBlocks: c.coalescedBlocks.Load(),
		PrefetchHits:    c.prefetchHits.Load(),
	}
}

// MemStore is the unbounded in-memory store used when the partition fits.
// Get and Len are safe for concurrent use once writes have stopped (reads
// mutate nothing); interleaving Append/Set with other calls still requires
// external synchronization, as with any Go slice.
//
// Rows are shared until first write and owned after: the first shared rows
// (everything present at the last ShareAll or CloneShallow) may also be
// referenced by the input relation or by another MemStore, so the first
// SetCol on one of them copies it into the store's value arena; from then on
// — and from birth for rows appended later — SetCol writes in place. A row
// that is never written is never copied.
type MemStore struct {
	rows []types.Row
	// shared is the number of leading rows that may be referenced from
	// outside the store; owned marks those already copied into arena.
	shared int
	owned  colstore.Bitmap
	nOwned int
	arena  []types.Value
}

// arenaMaxRows caps one arena chunk. Result rows leave the engine by
// reference, so a single retained row pins its whole chunk: the cap bounds
// that to a few dozen rows while still cutting allocations sixty-fold.
const arenaMaxRows = 64

// NewMem returns an empty in-memory store.
func NewMem() *MemStore { return &MemStore{} }

// Append implements Store.
func (m *MemStore) Append(row types.Row) RowID {
	m.rows = append(m.rows, row)
	return RowID{Slot: int32(len(m.rows) - 1)}
}

// Reserve makes room for n more rows, so a build that knows its row count
// appends without regrowing the row table.
func (m *MemStore) Reserve(n int) { m.rows = slices.Grow(m.rows, n) }

// Get implements Store.
func (m *MemStore) Get(id RowID) types.Row { return m.rows[id.Slot] }

// Set implements Store.
func (m *MemStore) Set(id RowID, row types.Row) {
	m.rows[id.Slot] = row
	if s := int(id.Slot); s < m.shared {
		m.markOwned(s)
	}
}

// SetCol implements Store: copy on first write, in place after.
func (m *MemStore) SetCol(id RowID, col int, v types.Value) {
	s := int(id.Slot)
	if s < m.shared && m.markOwned(s) {
		row := m.rows[s]
		n := len(row)
		if len(m.arena) < n {
			m.arena = make([]types.Value, n*min(max(m.nOwned, 8), arenaMaxRows))
		}
		m.rows[s] = m.arena[:n:n]
		m.arena = m.arena[n:]
		copy(m.rows[s], row)
	}
	m.rows[s][col] = v
}

// markOwned records that shared row s now belongs to the store alone and
// reports whether it was still shared.
func (m *MemStore) markOwned(s int) bool {
	if m.owned == nil {
		m.owned = colstore.NewBitmap(m.shared)
	}
	if m.owned.Get(s) {
		return false
	}
	m.owned.Set(s)
	m.nOwned++
	return true
}

// ShareAll declares every row stored so far shared with the caller: the
// partition build appends input rows by reference (BuildOptions.ShareRows)
// and calls this once, so the input relation survives any later write.
func (m *MemStore) ShareAll() {
	m.shared, m.owned, m.nOwned = len(m.rows), nil, 0
}

// Len implements Store.
func (m *MemStore) Len() int { return len(m.rows) }

// Stats implements Store.
func (m *MemStore) Stats() Stats { return Stats{} }

// Close implements Store.
func (m *MemStore) Close() error { return nil }

// CloneShallow returns an independent MemStore whose row table is copied
// but whose rows are shared with the original. Both sides treat every row
// as shared from here on, so whichever writes a row first copies it and the
// other keeps the unwritten one. m itself is only written when it still
// owns rows, which makes concurrent clones of a never-written store (the
// cached pristine structure) safe.
func (m *MemStore) CloneShallow() *MemStore {
	if m.shared != len(m.rows) || m.nOwned != 0 {
		m.ShareAll()
	}
	return &MemStore{rows: append([]types.Row(nil), m.rows...), shared: len(m.rows)}
}

// Config sizes a SpillStore.
type Config struct {
	// BudgetBytes bounds resident block memory; <= 0 means unbounded.
	BudgetBytes int64
	// RowsPerBlock is the block capacity in rows (default 128).
	RowsPerBlock int
	// Dir is the spill directory (default os.TempDir()).
	Dir string
	// Async enables background spill I/O: dirty evictions are handed to a
	// writer goroutine that coalesces blocks bound for adjacent file offsets
	// into single pwrites (double-buffered eviction), and sequential Get
	// patterns trigger read-ahead of the next block. Results are identical
	// to synchronous spilling; only the I/O schedule changes.
	Async bool
}

type block struct {
	rows  []types.Row // nil when evicted
	bytes int64       // estimated resident size
	dirty bool
	// spill file location of the latest written version; length 0 if the
	// block has never been spilled.
	off, length int64
	// weighted-LRU bookkeeping.
	lastTick int64
	hits     int64
}

// SpillStore is a byte-budgeted store backed by a spill file. The engine
// gives each processing element its own store, but reads are not naturally
// concurrency-safe the way MemStore's are — even Get mutates LRU bookkeeping
// and may evict or reload blocks — so every method takes an internal mutex.
// Callers must still honor the Store contract of not retaining a Get result
// across other store calls.
type SpillStore struct {
	mu       sync.Mutex
	cfg      Config
	blocks   []*block
	resident int64 // bytes of resident blocks
	tick     int64
	file     *os.File
	fileEnd  int64
	stats    counters
	nrows    int

	// Async-spill state (nil/zero when cfg.Async is off or nothing has
	// spilled yet). pending holds encoded blocks whose pwrite has not
	// completed; reads of those blocks decode from memory instead of the
	// file. prefetched holds read-ahead block images keyed by block index.
	wr         *ioQueue
	pf         *ioQueue
	pending    map[int32]pendingBlock
	prefetched map[int32]diskImage
	lastGet    int32 // previous Get's block index (sequential detection)
}

// pendingBlock is an encoded block awaiting its background write. off
// identifies the version: a block re-evicted before its previous image hit
// disk gets a new offset, and only the matching version may be dropped from
// the pending set once written.
type pendingBlock struct {
	off  int64
	data []byte
}

// diskImage is a block image read (or about to be read) from the spill file.
type diskImage struct {
	off  int64
	data []byte
}

// NewSpill creates a budgeted spilling store.
func NewSpill(cfg Config) *SpillStore {
	if cfg.RowsPerBlock <= 0 {
		cfg.RowsPerBlock = 128
	}
	return &SpillStore{cfg: cfg, lastGet: -2}
}

// Append implements Store.
func (s *SpillStore) Append(row types.Row) RowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.blocks)
	if n == 0 || len(s.lastBlockRows()) >= s.cfg.RowsPerBlock {
		s.blocks = append(s.blocks, &block{rows: make([]types.Row, 0, s.cfg.RowsPerBlock)})
		n = len(s.blocks)
	}
	b := s.blocks[n-1]
	if b.rows == nil {
		s.load(int32(n - 1))
		b = s.blocks[n-1]
	}
	id := RowID{Block: int32(n - 1), Slot: int32(len(b.rows))}
	b.rows = append(b.rows, row)
	b.dirty = true
	sz := rowBytes(row)
	b.bytes += sz
	s.resident += sz
	s.nrows++
	s.touch(b)
	s.enforceBudget(int32(n - 1))
	return id
}

func (s *SpillStore) lastBlockRows() []types.Row {
	b := s.blocks[len(s.blocks)-1]
	if b.rows == nil {
		s.load(int32(len(s.blocks) - 1))
	}
	return b.rows
}

// Get implements Store.
func (s *SpillStore) Get(id RowID) types.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id.Block]
	if b.rows == nil {
		s.load(id.Block)
	}
	s.touch(b)
	s.maybePrefetch(id.Block)
	s.enforceBudget(id.Block)
	return b.rows[id.Slot]
}

// maybePrefetch schedules a read-ahead of block cur+1 when Gets are walking
// blocks sequentially (cur follows the previous Get's block). Called with
// s.mu held.
func (s *SpillStore) maybePrefetch(cur int32) {
	prev := s.lastGet
	s.lastGet = cur
	if s.pf == nil || cur != prev+1 {
		return
	}
	next := cur + 1
	if int(next) >= len(s.blocks) || len(s.prefetched) >= prefetchWindow {
		return
	}
	nb := s.blocks[next]
	if nb.rows != nil || nb.length == 0 {
		return // resident, or nothing on disk to read
	}
	if _, ok := s.pending[next]; ok {
		return // its bytes are still in memory; load hits the pending set
	}
	if _, ok := s.prefetched[next]; ok {
		return
	}
	// Reserve the slot so the request is not re-issued before it completes;
	// the prefetcher replaces the placeholder with the block image.
	s.prefetched[next] = diskImage{off: -1}
	s.pf.push(ioReq{idx: next, off: nb.off, length: nb.length})
}

// Set implements Store.
func (s *SpillStore) Set(id RowID, row types.Row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id.Block]
	if b.rows == nil {
		s.load(id.Block)
	}
	old := b.rows[id.Slot]
	b.rows[id.Slot] = row
	delta := rowBytes(row) - rowBytes(old)
	b.bytes += delta
	s.resident += delta
	b.dirty = true
	s.touch(b)
	s.enforceBudget(id.Block)
}

// SetCol implements Store. Every row of a spill store is its own (callers
// hand rows over on Append, and reloaded blocks are decoded afresh), so the
// write is in place; what matters is that it happens here, under the lock,
// where the block is made resident and marked dirty — a write through a row
// returned by Get would be lost at the block's next eviction.
func (s *SpillStore) SetCol(id RowID, col int, v types.Value) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id.Block]
	if b.rows == nil {
		s.load(id.Block)
	}
	row := b.rows[id.Slot]
	delta := int64(len(v.S)) - int64(len(row[col].S))
	row[col] = v
	b.bytes += delta
	s.resident += delta
	b.dirty = true
	s.touch(b)
	s.enforceBudget(id.Block)
}

// Len implements Store.
func (s *SpillStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nrows
}

// Stats implements Store. It is safe to call concurrently with any other
// store method: the counters are atomics, so no lock is taken and callers
// polling progress never contend with the I/O path.
func (s *SpillStore) Stats() Stats { return s.stats.snapshot() }

// Close drains the background I/O goroutines and removes the spill file.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	wr, pf := s.wr, s.pf
	s.wr, s.pf = nil, nil
	s.mu.Unlock()
	// Join outside the mutex: the writer takes s.mu to retire pending
	// entries after each batch.
	if wr != nil {
		wr.close()
	}
	if pf != nil {
		pf.close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending, s.prefetched = nil, nil
	if s.file == nil {
		return nil
	}
	name := s.file.Name()
	err := s.file.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	s.file = nil
	return err
}

func (s *SpillStore) touch(b *block) {
	s.tick++
	b.lastTick = s.tick
	b.hits++
}

// weight implements the "weighted LRU" policy: plain recency, boosted by a
// capped hit count so that hot blocks (e.g. the block holding a partition's
// parent rows, probed once per child) survive longer than blocks touched
// once during the build scan.
func (b *block) weight() int64 {
	boost := b.hits
	if boost > 16 {
		boost = 16
	}
	return b.lastTick + 8*boost
}

// enforceBudget evicts lowest-weight blocks until the resident set fits.
// keep is never evicted (it is the block being actively accessed).
func (s *SpillStore) enforceBudget(keep int32) {
	if s.cfg.BudgetBytes <= 0 {
		return
	}
	for s.resident > s.cfg.BudgetBytes {
		victim := int32(-1)
		var vw int64
		for i, b := range s.blocks {
			if b.rows == nil || int32(i) == keep {
				continue
			}
			if w := b.weight(); victim < 0 || w < vw {
				victim, vw = int32(i), w
			}
		}
		if victim < 0 {
			return // only the active block is resident; nothing to do
		}
		s.evict(victim)
	}
}

// ensureFile lazily creates the spill file and, in async mode, starts the
// background writer and prefetcher. Called with s.mu held, before the first
// spill write.
func (s *SpillStore) ensureFile() {
	if s.file != nil {
		return
	}
	f, err := os.CreateTemp(s.cfg.Dir, "sqlsheet-spill-*.dat")
	if err != nil {
		panic(fmt.Sprintf("blockstore: create spill file: %v", err))
	}
	s.file = f
	if s.cfg.Async {
		s.pending = make(map[int32]pendingBlock)
		s.prefetched = make(map[int32]diskImage)
		s.wr = newIOQueue()
		s.pf = newIOQueue()
		go s.writeLoop(s.wr)
		go s.prefetchLoop(s.pf)
	}
}

func (s *SpillStore) evict(i int32) {
	b := s.blocks[i]
	if b.dirty {
		data, err := encodeBlock(b.rows)
		if err != nil {
			panic(fmt.Errorf("blockstore: spill encode: %w", err))
		}
		s.ensureFile()
		b.off, b.length = s.fileEnd, int64(len(data))
		s.fileEnd += int64(len(data))
		s.stats.bytesSpilled.Add(int64(len(data)))
		b.dirty = false
		if s.wr != nil {
			// Hand the encoded image to the background writer. The block
			// stays readable from the pending set until the pwrite lands;
			// offsets are assigned here, under s.mu, so the writer sees
			// requests in strictly increasing file order and can coalesce
			// adjacent ones into single pwrites.
			s.pending[i] = pendingBlock{off: b.off, data: data}
			s.wr.push(ioReq{idx: i, off: b.off, data: data})
		} else {
			if _, err := s.file.WriteAt(data, b.off); err != nil {
				panic(fmt.Sprintf("blockstore: spill write: %v", err))
			}
			s.stats.spillWrites.Add(1)
		}
	}
	s.stats.blockEvictions.Add(1)
	s.resident -= b.bytes
	b.rows = nil
	b.bytes = 0
}

func (s *SpillStore) load(i int32) {
	b := s.blocks[i]
	if p, ok := s.pending[i]; ok && p.off == b.off {
		// Reload before the background write landed: decode straight from
		// the in-memory image (the double-buffering win — no disk round
		// trip for blocks evicted and touched again shortly after).
		s.installBlock(i, b, p.data)
		return
	}
	if img, ok := s.prefetched[i]; ok {
		delete(s.prefetched, i)
		if img.data != nil && img.off == b.off && int64(len(img.data)) == b.length {
			s.stats.prefetchHits.Add(1)
			s.installBlock(i, b, img.data)
			return
		}
	}
	if b.length == 0 {
		// Never spilled with data; must have been evicted empty.
		b.rows = make([]types.Row, 0, s.cfg.RowsPerBlock)
		return
	}
	data := make([]byte, b.length)
	if _, err := s.file.ReadAt(data, b.off); err != nil {
		panic(fmt.Sprintf("blockstore: spill read: %v", err))
	}
	s.installBlock(i, b, data)
}

// installBlock decodes an encoded block image into block b and charges the
// load to the budget and statistics. Called with s.mu held.
func (s *SpillStore) installBlock(i int32, b *block, data []byte) {
	rows, err := decodeBlock(data)
	if err != nil {
		panic(fmt.Sprintf("blockstore: decode: %v", err))
	}
	b.rows = rows
	for _, r := range rows {
		b.bytes += rowBytes(r)
	}
	s.resident += b.bytes
	s.stats.blockLoads.Add(1)
	s.stats.bytesLoaded.Add(int64(len(data)))
	s.enforceBudget(i)
}

// RowBytes estimates the resident size of a row; callers sizing budgets
// relative to data (the Fig. 5 experiment) use the same accounting as the
// store itself.
func RowBytes(r types.Row) int64 { return rowBytes(r) }

// rowBytes estimates the resident size of a row.
func rowBytes(r types.Row) int64 {
	n := int64(24) // slice header + padding
	for _, v := range r {
		n += 40 // Value struct
		n += int64(len(v.S))
	}
	return n
}
