package exec

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/types"
)

// This file is the morsel-driven parallel execution layer. Operator inputs
// (materialized Result row slices) are split into fixed-size morsels — row
// ranges — dispatched to a worker pool sized by Options.Workers. The hot
// operators (filter/scan predicates, projection, hash-join build/probe,
// group-by) process morsels with per-worker eval.Contexts and stitch their
// outputs back together in morsel order, so the parallel paths produce
// byte-identical results to the serial engine.
//
// Determinism invariant: morsel boundaries are a pure function of the input
// size and the configured morsel size — never of the worker count. Any
// result assembled in morsel order (including per-morsel partial aggregates
// merged in morsel order) is therefore bit-identical for every Workers
// setting, floating-point accumulation included.

// defaultMorselSize is the number of rows per morsel. Small enough to load-
// balance skewed work, large enough that dispatch overhead is negligible.
const defaultMorselSize = 1024

// morsel is one contiguous row range [Lo, Hi) of an operator input.
type morsel struct {
	Idx    int // position in morsel order; output stitching key
	Lo, Hi int
}

// makeMorsels splits n rows into ceil(n/size) contiguous ranges.
func makeMorsels(n, size int) []morsel {
	ms := make([]morsel, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		ms = append(ms, morsel{Idx: len(ms), Lo: lo, Hi: hi})
	}
	return ms
}

// workers returns the effective operator worker-pool size:
// Options.Workers, defaulting to runtime.NumCPU() when zero.
func (ex *Executor) workers() int {
	w := ex.Opts.Workers
	if w == 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	return w
}

// morselSize returns the configured morsel size in rows.
func (ex *Executor) morselSize() int {
	if ex.Opts.Ablate.MorselSize > 0 {
		return ex.Opts.Ablate.MorselSize
	}
	return defaultMorselSize
}

// morselCount returns the number of morsels the parallel paths would use for
// n input rows, or 0 when the input is too small to be worth splitting (the
// caller keeps its serial path).
func (ex *Executor) morselCount(n int) int {
	size := ex.morselSize()
	if n < 2*size {
		return 0
	}
	return (n + size - 1) / size
}

// budget is the query's shared core budget. Operator worker pools and
// spreadsheet PEs draw extra-goroutine slots from the same pool, so a query
// combining Workers>1 with spreadsheet Parallel>1 cannot oversubscribe the
// host. The caller's own goroutine never needs a token — acquisition is
// non-blocking and always leaves at least one runner — so sharing the pool
// across nested operators cannot deadlock.
type budget struct {
	sem chan struct{}
}

// newBudget creates a budget with the given number of extra-goroutine slots
// (total concurrency = extra + the caller's goroutine).
func newBudget(extra int) *budget {
	if extra < 0 {
		extra = 0
	}
	b := &budget{sem: make(chan struct{}, extra)}
	for i := 0; i < extra; i++ {
		b.sem <- struct{}{}
	}
	return b
}

// tryAcquire takes up to want tokens without blocking and returns the number
// actually granted.
func (b *budget) tryAcquire(want int) int {
	got := 0
	for got < want {
		select {
		case <-b.sem:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns n tokens to the pool.
func (b *budget) release(n int) {
	for i := 0; i < n; i++ {
		b.sem <- struct{}{}
	}
}

// OpStat records one operator execution: every parallel operator's, and
// the filter, projection, sorting, window, limit and spreadsheet operators'
// whether parallel or not (a projection that only renames or reorders
// columns over positions does no work and records none).
type OpStat struct {
	Op      string        // operator: filter, project, join-build, join-probe, group-by, sort, top-k, window, limit, spreadsheet
	Rows    int           // input rows processed
	Morsels int           // morsel count (0 for non-morsel operators)
	Workers int           // goroutines actually used after budget arbitration
	Elapsed time.Duration // wall-clock time of the operator
	Note    string        // how it ran, where that varies (sort keys, window partitions, limit)
}

// Stats aggregates per-operator measurements for one statement; the DB layer
// threads it into EXPLAIN ANALYZE-style output and cmd/experiments reports.
type Stats struct {
	Ops []OpStat
	// Cache reports the serving-path cache's involvement in the statement.
	Cache CacheStats
}

// String renders the stats as an aligned table, one line per operator.
func (s Stats) String() string {
	if len(s.Ops) == 0 {
		return "(no parallel operators)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %8s %12s\n", "operator", "rows", "morsels", "workers", "elapsed")
	for _, op := range s.Ops {
		fmt.Fprintf(&b, "%-12s %10d %8d %8d %12s", op.Op, op.Rows, op.Morsels, op.Workers, op.Elapsed)
		if op.Note != "" {
			b.WriteString("  " + op.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// recordOp appends one operator measurement (workers may race on the stats).
func (ex *Executor) recordOp(st OpStat) {
	ex.mu.Lock()
	ex.ExecStats.Ops = append(ex.ExecStats.Ops, st)
	ex.mu.Unlock()
}

// forEachMorsel splits n input rows into morsels and runs fn over them on
// the worker pool, recording the operator's line; fn receives the worker
// index (for per-worker state) and the morsel. It returns used=false —
// doing nothing — when the input is below the morsel threshold; the caller
// then keeps its serial path.
func (ex *Executor) forEachMorsel(op string, n int, fn func(worker int, m morsel) error) (bool, error) {
	if ex.morselCount(n) == 0 {
		return false, nil
	}
	start := time.Now()
	morsels, w, err := ex.runMorsels(n, fn)
	ex.recordOp(OpStat{Op: op, Rows: n, Morsels: morsels, Workers: w, Elapsed: time.Since(start)})
	return true, err
}

// runMorsels runs fn over n rows' morsels on the worker pool and returns
// the morsel count and the workers used; the caller records the line.
//
// All morsels are processed even after a failure, and the error returned is
// the one from the lowest-indexed failing morsel: since each morsel scans
// its rows in order, that is exactly the error the serial engine would have
// reported first.
func (ex *Executor) runMorsels(n int, fn func(worker int, m morsel) error) (morsels, workers int, err error) {
	ms := makeMorsels(n, ex.morselSize())
	errs := make([]error, len(ms))
	var next atomic.Int64
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ms) {
				return
			}
			// Cancellation point: each morsel claim polls the context, so a
			// timed-out query stops within one morsel of work per worker.
			if err := ex.checkCtx(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = fn(worker, ms[i])
		}
	}
	w := ex.runPool(len(ms), work)
	for _, err := range errs {
		if err != nil {
			return len(ms), w, err
		}
	}
	return len(ms), w, nil
}

// runPool executes work on up to min(workers, tasks) goroutines, drawing
// extra slots from the shared budget; the calling goroutine is always worker
// 0. Returns the number of workers used.
func (ex *Executor) runPool(tasks int, work func(worker int)) int {
	w := ex.workers()
	if w > tasks {
		w = tasks
	}
	extra := 0
	if w > 1 {
		extra = ex.bud.tryAcquire(w - 1)
	}
	w = 1 + extra
	if w == 1 {
		work(0)
		return 1
	}
	var wg sync.WaitGroup
	for wk := 1; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			work(wk)
		}(wk)
	}
	work(0)
	wg.Wait()
	ex.bud.release(extra)
	return w
}

// workerCtxs lazily builds one eval.Context per worker over the same schema
// and outer binding. Each worker owns its Binding, so binding rows during
// morsel processing is race-free; hooks and the subquery runner are shared
// (the relational runner is mutex-guarded).
type workerCtxs struct {
	proto *eval.Context
	ctxs  []*eval.Context
}

func (ex *Executor) workerCtxs(bs *eval.BoundSchema, outer *eval.Binding) *workerCtxs {
	return &workerCtxs{
		proto: ex.ctx(bs, nil, outer),
		ctxs:  make([]*eval.Context, ex.workers()),
	}
}

// get returns worker w's context, cloning the prototype on first use. A
// worker index is only ever used by one goroutine at a time, so the lazy
// fill needs no lock.
func (wc *workerCtxs) get(w int) *eval.Context {
	if wc.ctxs[w] == nil {
		wc.ctxs[w] = wc.proto.Clone()
	}
	return wc.ctxs[w]
}

// stitch concatenates per-morsel outputs in morsel order, preserving the
// serial engine's row order exactly.
func stitch(parts [][]types.Row) []types.Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return nil
	}
	out := make([]types.Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
