package blockstore

import "sync"

// Background spill I/O. Eviction under a byte budget is the dominant cost of
// the out-of-core regime (the paper's Fig. 5 experiment): every block that
// crosses the budget boundary costs a synchronous encode + pwrite on the
// query path. In async mode the store instead double-buffers evictions —
// the foreground encodes the block, assigns its file offset and hands the
// image to a writer goroutine; the writer drains whole batches, coalescing
// blocks bound for adjacent offsets into single pwrites. A small read-ahead
// queue mirrors the idea on the load side: when Gets walk blocks
// sequentially (a partition scan over a clustered bucket), the next block is
// fetched before it is asked for.

// prefetchWindow bounds the number of outstanding read-ahead block images.
// Two is the classic double buffer: one block being consumed, one in flight.
const prefetchWindow = 2

// ioReq is one unit of background work: a write (data != nil) or a
// read-ahead (length > 0) of block idx at file offset off.
type ioReq struct {
	idx    int32
	off    int64
	length int64
	data   []byte
}

// ioQueue is an unbounded FIFO drained by one background goroutine. It is
// deliberately not a channel: the producer runs under the store mutex, and a
// bounded channel send there could deadlock against a consumer waiting for
// that same mutex. Unboundedness is safe — queue depth is limited by how far
// eviction can outrun the writer within one budget enforcement pass.
type ioQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	reqs   []ioReq
	closed bool
	done   chan struct{}
}

func newIOQueue() *ioQueue {
	q := &ioQueue{done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a request. Never blocks; safe to call with the store mutex
// held.
func (q *ioQueue) push(r ioReq) {
	q.mu.Lock()
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
	q.cond.Signal()
}

// drain blocks until requests are available or the queue is closed, then
// returns the whole backlog (the swap is what makes eviction double-
// buffered: the foreground refills a fresh slice while the consumer works
// the old one). ok is false once the queue is closed and empty.
func (q *ioQueue) drain() (batch []ioReq, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.reqs) == 0 && !q.closed {
		q.cond.Wait()
	}
	batch, q.reqs = q.reqs, nil
	return batch, len(batch) > 0 || !q.closed
}

// close marks the queue closed and waits for the consumer to finish the
// backlog and exit.
func (q *ioQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
	<-q.done
}

// writeLoop is the background eviction writer: it drains write batches and
// issues them with adjacent-offset coalescing. Offsets are assigned by
// evict() under the store mutex, so requests arrive in increasing file
// order and blocks evicted in one budget pass occupy contiguous offsets —
// the common case collapses a whole eviction wave into one pwrite.
func (s *SpillStore) writeLoop(q *ioQueue) {
	defer close(q.done)
	for {
		batch, ok := q.drain()
		if len(batch) > 0 {
			s.flushBatch(batch)
		}
		if !ok {
			return
		}
	}
}

// flushBatch writes a batch of encoded blocks, merging runs of requests
// whose file ranges are adjacent into single pwrites, then retires the
// written versions from the pending set.
func (s *SpillStore) flushBatch(batch []ioReq) {
	for lo := 0; lo < len(batch); {
		hi := lo + 1
		end := batch[lo].off + int64(len(batch[lo].data))
		for hi < len(batch) && batch[hi].off == end {
			end += int64(len(batch[hi].data))
			hi++
		}
		buf := batch[lo].data
		if hi > lo+1 {
			buf = make([]byte, 0, end-batch[lo].off)
			for i := lo; i < hi; i++ {
				buf = append(buf, batch[i].data...)
			}
			s.stats.coalescedBlocks.Add(int64(hi - lo - 1))
		}
		if _, err := s.file.WriteAt(buf, batch[lo].off); err != nil {
			// The blocks stay pending: loads keep decoding them from memory.
			s.fail("async spill write", err)
			lo = hi
			continue
		}
		s.stats.spillWrites.Add(1)
		s.mu.Lock()
		for i := lo; i < hi; i++ {
			// Retire only the version we wrote: a block re-evicted in the
			// meantime has a newer offset and a newer pending entry.
			if p, ok := s.pending[batch[i].idx]; ok && p.off == batch[i].off {
				delete(s.pending, batch[i].idx)
			}
		}
		s.mu.Unlock()
		lo = hi
	}
}

// prefetchLoop services read-ahead requests. Each request's offset range was
// durably written before the request was issued (pending blocks are never
// enqueued), and the spill file is append-only, so the pread needs no lock;
// only installing the image does. The image is kept only if its block is
// still evicted at the same offset and its reservation was not cancelled by
// a foreground load.
func (s *SpillStore) prefetchLoop(q *ioQueue) {
	defer close(q.done)
	for {
		batch, ok := q.drain()
		for _, r := range batch {
			data := make([]byte, r.length)
			if _, err := s.file.ReadAt(data, r.off); err != nil {
				s.fail("read-ahead", err)
				data = nil // the reservation goes; a foreground load reads for itself
			}
			s.mu.Lock()
			img, reserved := s.prefetched[r.idx]
			b := s.blocks[r.idx]
			if reserved && img.data == nil && data != nil && b.rows == nil && b.off == r.off {
				s.prefetched[r.idx] = diskImage{off: r.off, data: data}
			} else if reserved && img.data == nil {
				delete(s.prefetched, r.idx) // overtaken by a foreground load
			}
			s.mu.Unlock()
		}
		if !ok {
			return
		}
	}
}
