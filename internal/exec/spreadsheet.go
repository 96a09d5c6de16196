package exec

import (
	"time"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// execSpreadsheet materializes the working relation and reference sheets,
// then hands off to the core engine with the configured store factory and
// degree of parallelism.
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
	if prebuilt == nil {
		in, err := ex.Execute(n.Input, outer)
		if err != nil {
			return nil, err
		}
		inRows = in.Rows
		// Only the leading PBY+DBY ordinals are key-encoded by the build.
		inCols = ex.vecColSource(in, n.Model.NPby+n.Model.NDby)
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

	newStore := func() blockstore.Store { return blockstore.NewMem() }
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
		engine.Buckets = core.ChooseBuckets(len(inRows), 64, ex.Opts.MemoryBudget, ex.Opts.Parallel)
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
	// evaluating a private clone.
	var onBuilt func(*core.PartitionSet)
	if structs := ex.Opts.Structs; structs != nil && outer == nil && prebuilt == nil {
		onBuilt = func(ps *core.PartitionSet) {
			if cp := ps.CloneForReuse(); cp != nil {
				structs.Store(n, cp)
			}
		}
	}
	start := time.Now()
	rows, stats, err := n.Model.Run(inRows, core.RunOptions{
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
		// FastLocalPath is only set for unbudgeted sessions (see
		// db.newExecutor), so the stores above are memory-resident and rows
		// may cross the store boundary by reference; the MemoryBudget guard
		// repeats the invariant for callers constructing Options directly.
		FastLocal: ex.Opts.FastLocalPath && ex.Opts.MemoryBudget == 0,
	})
	ex.bud.release(granted)
	if prebuilt != nil {
		ex.mu.Lock()
		ex.ExecStats.Cache.StructuresReused++
		ex.mu.Unlock()
	}
	if ex.Opts.Parallel > 1 {
		ex.recordOp(OpStat{Op: "spreadsheet", Rows: len(inRows), Workers: par, Elapsed: time.Since(start)})
	}
	if err != nil {
		return nil, err
	}
	ex.mu.Lock()
	ex.SheetStats.Add(stats)
	ex.mu.Unlock()

	if n.DropCols > 0 {
		for i, r := range rows {
			rows[i] = r[n.DropCols:]
		}
	}
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}
