package shard

import (
	"context"
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// WorkerOptions tunes subplan execution on a worker (mapped from the
// server's config). Neither knob affects result bytes — the engine's
// parallelism contract holds on workers exactly as it does locally.
type WorkerOptions struct {
	// Parallel is the spreadsheet PE count (<=1 serial).
	Parallel int
	// Workers is the build worker-pool size (<=1 serial).
	Workers int
}

// Emit receives one encoded partial-result chunk; the server wraps each in
// a PART frame and streams it back to the coordinator mid-request.
type Emit func(chunk []byte) error

// ExecuteSubplan runs one decoded subplan envelope: re-parse the carrier
// statement, bind the shipped rows, execute, and stream partials through
// emit. Sheet subplans emit result-row pages; group subplans emit one
// morsel-run partial per shipped run. ctx cancels mid-scan (the engine
// polls it inside partition evaluation, and the run loop checks it between
// partials).
func ExecuteSubplan(ctx context.Context, env []byte, opts WorkerOptions, emit Emit) error {
	e, err := DecodeEnvelope(env)
	if err != nil {
		return err
	}
	rows, err := DecodeRowPages(e.Pages)
	if err != nil {
		return err
	}
	switch e.Kind {
	case KindSheet:
		return execSheetSubplan(ctx, e, rows, opts, emit)
	default:
		return execGroupSubplan(ctx, e, rows, opts, emit)
	}
}

// execSheetSubplan compiles the synthesized SPREADSHEET clause over the
// shipped working schema and runs the model directly — the statement's
// SELECT * FROM "__shard_input" shell is only a carrier, so the planner
// (and any catalog) is bypassed entirely.
func execSheetSubplan(ctx context.Context, e *Envelope, rows []types.Row, opts WorkerOptions, emit Emit) error {
	stmt, err := parser.ParseQuery(e.Stmt)
	if err != nil {
		return fmt.Errorf("shard: sheet subplan parse: %w", err)
	}
	body, _ := stmt.Query.(*sqlast.SelectBody)
	if body == nil || body.Spreadsheet == nil {
		return fmt.Errorf("shard: sheet subplan carries no SPREADSHEET clause")
	}
	m, err := core.Compile(body.Spreadsheet, types.NewSchemaNames(e.Cols...), nil)
	if err != nil {
		return fmt.Errorf("shard: sheet subplan compile: %w", err)
	}
	out, _, err := m.Run(rows, core.RunOptions{
		Ctx:          ctx,
		Parallel:     opts.Parallel,
		BuildWorkers: opts.Workers,
	})
	if err != nil {
		return err
	}
	pages, ok := EncodeRowPages(out, len(e.Cols))
	if !ok {
		return fmt.Errorf("shard: sheet result rows not page-encodable")
	}
	for _, p := range pages {
		if err := emit(p); err != nil {
			return err
		}
	}
	return nil
}

// execGroupSubplan plans the synthesized aggregate statement over an
// ephemeral catalog holding the shipped rows, locates the group-by node,
// and computes one aggregation partial per shipped morsel run on the
// row-at-a-time path (whose accumulator states are bit-identical to the
// vectorized path's).
func execGroupSubplan(ctx context.Context, e *Envelope, rows []types.Row, opts WorkerOptions, emit Emit) error {
	stmt, err := parser.ParseQuery(e.Stmt)
	if err != nil {
		return fmt.Errorf("shard: group subplan parse: %w", err)
	}
	cat := catalog.New()
	t, err := cat.Create(InputTable, types.NewSchemaNames(e.Cols...))
	if err != nil {
		return err
	}
	// Assign directly: Insert would re-coerce values, and the shipped rows
	// are already in engine representation. Publish, because the executor
	// scans images, never the master slice.
	t.Rows = rows
	t.Publish()
	pn, err := plan.Build(cat, stmt, &plan.Options{Parallel: 1, Workers: 1})
	if err != nil {
		return fmt.Errorf("shard: group subplan plan: %w", err)
	}
	gb := findGroupBy(pn)
	if gb == nil {
		return fmt.Errorf("shard: group subplan has no GroupBy node")
	}
	if len(gb.Keys) != e.NKeys || len(gb.Aggs) != e.NAggs {
		return fmt.Errorf("shard: group subplan shape mismatch: %d keys/%d aggs, want %d/%d",
			len(gb.Keys), len(gb.Aggs), e.NKeys, e.NAggs)
	}
	ex := exec.New(cat, exec.Options{Ctx: ctx, Parallel: 1, Workers: 1})
	in, err := ex.Execute(gb.Input, nil)
	if err != nil {
		return err
	}
	total := 0
	for _, r := range e.Runs {
		total += r.Count
	}
	if total != len(in.Rows) {
		return fmt.Errorf("shard: morsel runs cover %d rows, shipped %d", total, len(in.Rows))
	}
	off := 0
	for _, run := range e.Runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		p, err := ex.ComputeGroupPartial(gb, in, off, off+run.Count)
		if err != nil {
			return err
		}
		off += run.Count
		part := &GroupPart{Morsel: run.Morsel, Groups: make([]PartGroup, len(p.Order))}
		for i := range p.Order {
			pg := PartGroup{Keys: p.Keys[i], States: make([][]byte, len(p.Accs[i]))}
			for j, acc := range p.Accs[i] {
				pg.States[j] = aggs.AppendState(nil, acc)
			}
			part.Groups[i] = pg
		}
		if err := emit(EncodeGroupPart(part)); err != nil {
			return err
		}
	}
	return nil
}

// findGroupBy returns the first group-by node in the tree (the synthesized
// statement has exactly one).
func findGroupBy(n plan.Node) *plan.GroupBy {
	if gb, ok := n.(*plan.GroupBy); ok {
		return gb
	}
	for _, ch := range n.Children() {
		if gb := findGroupBy(ch); gb != nil {
			return gb
		}
	}
	return nil
}
