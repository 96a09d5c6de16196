package exec

import (
	"fmt"
	"slices"
	"time"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// execSpreadsheet runs the working relation — positions over its image
// where the input has one, rows only when a column has none — and
// materializes the reference sheets, then hands off to the core engine with
// the configured store factory and degree of parallelism.
func (ex *Executor) execSpreadsheet(n *plan.Spreadsheet, outer *eval.Binding) (*Result, error) {
	// Serving-path structure reuse: when the plan is cached and a pristine
	// access structure exists for this node, clone it and skip both the
	// input scan and the partition build — the cache layer has already
	// verified that every dependency's table version is unchanged, so the
	// build would reproduce the cached structure bit for bit. Only
	// uncorrelated spreadsheets qualify (an outer binding changes the
	// input).
	var prebuilt *core.PartitionSet
	if ex.Opts.Structs != nil && outer == nil {
		if ps, ok := ex.Opts.Structs.Lookup(n); ok {
			prebuilt = ps.CloneForReuse()
		}
	}
	var inRows []types.Row
	var inCols *core.ColSource
	nIn := 0
	// image: the output's key columns can be gathered from the input image
	// (every one the output keeps is there), so the engine is asked for
	// positions and measure columns rather than rows.
	image, outNote := false, "rows(reused)"
	if prebuilt == nil {
		in, err := ex.run(n.Input, outer)
		if err != nil {
			return nil, err
		}
		nIn = in.Len()
		// The engine reads every working column it has an image of from
		// the image; rows are boxed only when some column has none (an
		// image narrower than the schema, such as a window's, included).
		inCols = ex.vecColSource(in, len(in.Schema.Cols))
		if !inCols.Covers(len(in.Schema.Cols)) {
			if in, err = ex.boxed(in); err != nil {
				return nil, err
			}
			inRows = in.Rows
		}
		nk := n.Model.NPby + n.Model.NDby
		image = inCols != nil && len(inCols.Cols) >= nk && !slices.Contains(inCols.Cols[n.DropCols:nk], nil)
		if !image {
			outNote = "rows(no-input-image)"
		}
	}
	for i, rp := range n.RefPlans {
		res, err := ex.Execute(rp, outer)
		if err != nil {
			return nil, err
		}
		if err := n.Model.Refs[i].Load(res.Rows); err != nil {
			return nil, err
		}
	}

	var newStore core.StoreFactory // unbudgeted: measure vectors, no row store
	if ex.Opts.MemoryBudget > 0 {
		budget, dir := ex.Opts.MemoryBudget, ex.Opts.SpillDir
		async := !ex.Opts.Ablate.DisableAsyncSpill
		newStore = func() blockstore.Store {
			return blockstore.NewSpill(blockstore.Config{BudgetBytes: budget, Dir: dir, RowsPerBlock: 16, Async: async})
		}
	}
	// The engine's toggles go down whole, with the bucket count resolved:
	// the choice uses the requested PE count so partitioning (and result row
	// order) stays deterministic regardless of budget grants.
	engine := ex.Opts.Engine
	if engine.Buckets <= 0 {
		engine.Buckets = core.ChooseBuckets(nIn, 64, ex.Opts.MemoryBudget, ex.Opts.Parallel)
	}
	// Spreadsheet PEs and partition-build workers draw from the same core
	// budget as the operator worker pools, so Workers>1 plus Parallel>1
	// cannot oversubscribe the host. Build and PE evaluation are sequential
	// phases inside Run, so one grant — sized for the larger of the two —
	// covers both.
	par := ex.Opts.Parallel
	bw := ex.workers()
	need := par
	if bw > need {
		need = bw
	}
	granted := 0
	if need > 1 {
		granted = ex.bud.tryAcquire(need - 1)
	}
	if par > 1+granted {
		par = 1 + granted
	}
	if bw > 1+granted {
		bw = 1 + granted
	}
	// On a cache miss, publish a pristine copy of the structure right after
	// the build (before any formula runs); on reuse the executor is already
	// evaluating a private clone. Either way the structure is kept for the
	// operator line's key note.
	built := prebuilt
	structs := ex.Opts.Structs
	publish := structs != nil && outer == nil && prebuilt == nil
	onBuilt := func(ps *core.PartitionSet) {
		built = ps
		if publish {
			if cp := ps.CloneForReuse(); cp != nil {
				structs.Store(n, cp)
			}
		}
	}
	var counts core.VecStats
	start := time.Now()
	out, stats, err := n.Model.Exec(inRows, core.RunOptions{
		Ctx:          ex.Opts.Ctx,
		Parallel:     par,
		BuildWorkers: bw,
		NewStore:     newStore,
		Subquery:     &runner{ex: ex},
		Promoted:     n.Promoted,
		Ablate:       engine,
		Cols:         inCols,
		Prebuilt:     prebuilt,
		OnBuilt:      onBuilt,
		Stats:        &counts,
		Image:        image,
	})
	ex.bud.release(granted)
	if prebuilt != nil {
		ex.mu.Lock()
		ex.ExecStats.Cache.StructuresReused++
		ex.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Schema: n.Schema(), Rows: out.Rows}
	if n.DropCols > 0 {
		for i, r := range res.Rows {
			res.Rows[i] = r[n.DropCols:]
		}
	}
	if out.Pos != nil {
		outNote = sheetImage(n, inCols, out, res)
	}
	// How the cells were keyed and read, and the form of the output:
	// EXPLAIN ANALYZE's spreadsheet line.
	ex.recordOp(OpStat{Op: "spreadsheet", Rows: nIn, Workers: max(par, 1), Elapsed: time.Since(start),
		Note: fmt.Sprintf("keys=%s probes=%d aliased=%d out=%s", built.KeyNote(), counts.Probes.Load(), counts.Aliased.Load(), outNote)})
	ex.mu.Lock()
	ex.SheetStats.Add(stats)
	ex.mu.Unlock()
	return res, nil
}

// sheetImage gives res, the spreadsheet's result, its image: the key
// columns gathered from the input image's (keys) by each output row's input
// position, sharing their dictionaries, and the engine's measure columns
// (its vectors). When a rule inserted a cell, the key columns are nil (an
// inserted key has no input position) and res keeps the rows the engine
// handed out beside the image. It returns the output note: out=image when
// res is positions only, else rows(inserted).
func sheetImage(n *plan.Spreadsheet, keys *core.ColSource, out *core.Output, res *Result) string {
	m := n.Model
	nk := m.NPby + m.NDby
	img := &colstore.Table{NRows: len(out.Pos), Cols: make([]*colstore.Column, nk+m.NMea)}
	if !out.Inserted {
		idx := out.Pos
		if keys.RowIdx != nil {
			idx = make([]int32, len(out.Pos))
			for i, p := range out.Pos {
				idx[i] = keys.RowIdx[p]
			}
		}
		for ord := n.DropCols; ord < nk; ord++ {
			img.Cols[ord] = colstore.Gather(keys.Cols[ord], idx)
		}
	}
	copy(img.Cols[nk:], out.Meas)
	res.Img = img
	if n.DropCols > 0 {
		res.ColMap = make([]int, len(img.Cols)-n.DropCols)
		for j := range res.ColMap {
			res.ColMap[j] = n.DropCols + j
		}
	}
	if out.Inserted {
		return "rows(inserted)"
	}
	return "image"
}
