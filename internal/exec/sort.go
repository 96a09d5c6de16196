package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// Parallel external merge sort. ORDER BY (and window partition ordering) run
// as a chunked sort: workers stable-sort morsel-sized runs with the same
// bottom-up merge sort the serial path uses, then a loser-tree multiway merge
// interleaves the runs. Run boundaries are a pure function of the input size
// and morsel size — never the worker count — and ties break toward the lower
// run (runs are input-order chunks), so the merged order is byte-identical to
// one whole-input stable sort for every Workers setting.
//
// When a memory budget is configured and the input's estimated footprint
// exceeds it, the sorted runs spill through a blockstore.SpillStore (async
// eviction unless disabled) and the merge streams them back block by block —
// the classic external sort, bounded by the budget instead of the result
// size.

// sortedPerm returns the permutation of [0,n) that stable-sorts indices by
// cmp (ties keep input order), with the run count and workers it used.
// Large inputs sort as parallel runs merged by a loser tree; a serial
// executor (Workers == 1) or a small input takes one stable sort. Either
// path yields identical bytes.
func (ex *Executor) sortedPerm(n int, cmp func(a, b int) int) (perm []int, morsels, workers int) {
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if n < 2 {
		return perm, 0, 1
	}
	size := ex.morselSize()
	if ex.workers() == 1 || n < 2*size {
		stableSort(perm, cmp)
		return perm, 0, 1
	}
	runs := makeMorsels(n, size)
	var next atomic.Int64
	w := ex.runPool(len(runs), func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(runs) {
				return
			}
			stableSort(perm[runs[i].Lo:runs[i].Hi], cmp)
		}
	})
	return mergeRuns(perm, runs, cmp), len(runs), w
}

// mergeRuns interleaves sorted runs of perm with a loser tree.
func mergeRuns(perm []int, runs []morsel, cmp func(a, b int) int) []int {
	pos := make([]int, len(runs))
	for i, r := range runs {
		pos[i] = r.Lo
	}
	lt := newLoserTree(len(runs),
		func(r int) bool { return pos[r] >= runs[r].Hi },
		func(a, b int) int { return cmp(perm[pos[a]], perm[pos[b]]) })
	out := make([]int, 0, len(perm))
	for {
		r := lt.winner()
		if r < 0 {
			break
		}
		out = append(out, perm[pos[r]])
		pos[r]++
		lt.replay(r)
	}
	return out
}

// loserTree is a tournament tree over k runs: winner() is the run whose head
// element comes next, replay(r) restores the invariant after run r advances.
// Each replay costs one comparison per tree level (log k), against k-1 for a
// naive scan — the difference between O(n log k) and O(nk) merges.
type loserTree struct {
	k     int
	node  []int // node[0] = winner; node[i>=1] = loser of the match at i
	empty func(r int) bool
	cmp   func(a, b int) int // compares the heads of two non-empty runs
}

func newLoserTree(k int, empty func(int) bool, cmp func(int, int) int) *loserTree {
	lt := &loserTree{k: k, node: make([]int, k), empty: empty, cmp: cmp}
	for i := range lt.node {
		lt.node[i] = -1
	}
	for r := k - 1; r >= 0; r-- {
		lt.replay(r)
	}
	return lt
}

// winner returns the run with the globally smallest head, or -1 when all
// runs are exhausted.
func (lt *loserTree) winner() int {
	if w := lt.node[0]; w >= 0 && !lt.empty(w) {
		return w
	}
	return -1
}

// replay pushes run r from its leaf toward the root, playing the loser
// stored at each match: the winner continues up, the loser stays. During
// initialization (leaves replayed from k-1 down to 0) an empty seat parks the
// contender and stops — by the final replay every seat on the way up is
// filled, so the last pass reaches the root and crowns the overall winner.
func (lt *loserTree) replay(r int) {
	winner := r
	for i := (lt.k + r) / 2; i >= 1; i /= 2 {
		if lt.node[i] < 0 {
			lt.node[i] = winner
			return
		}
		if lt.beats(lt.node[i], winner) {
			winner, lt.node[i] = lt.node[i], winner
		}
	}
	lt.node[0] = winner
}

// beats reports whether run a's head must be emitted before run b's.
// Exhausted runs (and empty seats) always lose; ties go to the lower run
// index, which preserves global stability because runs are input-order
// chunks.
func (lt *loserTree) beats(a, b int) bool {
	if a < 0 || lt.empty(a) {
		return false
	}
	if b < 0 || lt.empty(b) {
		return true
	}
	c := lt.cmp(a, b)
	return c < 0 || (c == 0 && a < b)
}

// execSort runs ORDER BY: the full stable sort of its input by the items,
// or, when the plan fused a LIMIT k below the input size into it, the
// first k rows of that sort selected without sorting the rest (and without
// spilling: it holds k rows).
func (ex *Executor) execSort(n *plan.Sort, outer *eval.Binding) (*Result, error) {
	in, err := ex.run(n.Input, outer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	items := make([]keyItem, len(n.Items))
	for j, it := range n.Items {
		items[j] = keyItem{expr: it.Expr, c: n.ItemsC[j], desc: it.Desc}
	}
	keys, in, err := ex.keysOf("sort-keys", in, items, outer)
	if err != nil {
		return nil, err
	}
	nr := in.Len()
	if n.Limit >= 0 && n.Limit < nr {
		perm := keys.topK(n.Limit)
		ex.opLine("top-k", nr, 0, 1, start, fmt.Sprintf("k=%d %s", n.Limit, keys.note()))
		return permuted(in, n.Schema(), perm), nil
	}
	if ex.spillSort(nr, len(in.Schema.Cols)) {
		if in, err = ex.boxed(in); err != nil {
			return nil, err
		}
		rows, err := ex.externalSort(in.Rows, keys.cmp)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: n.Schema(), Rows: rows}, nil
	}
	perm, morsels, workers := ex.sortPerm(keys)
	note := keys.note()
	if n.Limit >= 0 {
		note = fmt.Sprintf("k=%d %s", n.Limit, note) // k ≥ the input: every row
	}
	ex.opLine("sort", nr, morsels, workers, start, note)
	return permuted(in, n.Schema(), perm), nil
}

// spillSort decides whether ORDER BY runs as an external sort: a memory
// budget is configured and the input's estimated footprint exceeds it. The
// estimate depends only on row and column counts, so the decision — like
// every other parallel-path decision — is independent of Workers.
func (ex *Executor) spillSort(nr, ncols int) bool {
	if ex.Opts.MemoryBudget <= 0 || nr < 2 {
		return false
	}
	const rowOverhead, colBytes = 48, 24
	est := int64(nr) * int64(rowOverhead+ncols*colBytes)
	return est > ex.Opts.MemoryBudget
}

// externalSort sorts rows as spilled runs merged by a loser tree. Each run is
// stable-sorted in parallel (same chunking as sortedPerm), appended to a
// budget-bounded spill store in sorted order — so the merge's Gets walk each
// run's blocks sequentially, the access pattern the store's read-ahead
// recognizes — and streamed back through the merge. The returned rows are
// clones; the store (and its file) is released before returning, and a spill
// I/O failure fails the sort.
func (ex *Executor) externalSort(rows []types.Row, cmp func(a, b int) int) ([]types.Row, error) {
	start := time.Now()
	nr := len(rows)
	runs := makeMorsels(nr, ex.morselSize())
	perm := make([]int, nr)
	for i := range perm {
		perm[i] = i
	}
	var next atomic.Int64
	w := ex.runPool(len(runs), func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(runs) {
				return
			}
			stableSort(perm[runs[i].Lo:runs[i].Hi], cmp)
		}
	})
	store := blockstore.NewSpill(blockstore.Config{
		BudgetBytes:  ex.Opts.MemoryBudget,
		Dir:          ex.Opts.SpillDir,
		RowsPerBlock: 16,
		Async:        !ex.Opts.Ablate.DisableAsyncSpill,
	})
	defer store.Close()
	// Spill each run in sorted order. Appends are sequential per store, so
	// runs are laid out contiguously; ids[r] addresses run r's rows.
	ids := make([][]blockstore.RowID, len(runs))
	for r, m := range runs {
		ids[r] = make([]blockstore.RowID, 0, m.Hi-m.Lo)
		for _, p := range perm[m.Lo:m.Hi] {
			ids[r] = append(ids[r], store.Append(rows[p]))
		}
	}
	pos := make([]int, len(runs))
	lt := newLoserTree(len(runs),
		func(r int) bool { return pos[r] >= len(ids[r]) },
		func(a, b int) int {
			return cmp(perm[runs[a].Lo+pos[a]], perm[runs[b].Lo+pos[b]])
		})
	out := make([]types.Row, 0, nr)
	for {
		r := lt.winner()
		if r < 0 {
			break
		}
		out = append(out, store.Get(ids[r][pos[r]]).Clone())
		pos[r]++
		lt.replay(r)
	}
	// Closing drains the background writer; a spill I/O failure fails the sort.
	store.Close()
	if err := store.Err(); err != nil {
		return nil, err
	}
	st := store.Stats()
	ex.mu.Lock()
	ex.SheetStats.Add(st)
	ex.mu.Unlock()
	ex.recordOp(OpStat{Op: "sort-spill", Rows: nr, Morsels: len(runs), Workers: w, Elapsed: time.Since(start)})
	return out, nil
}
