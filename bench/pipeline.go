package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"sqlsheet/internal/apb"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/plancache"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
	"sqlsheet/internal/wire"
)

// pipeline is the statement path of sqlsheetd rebuilt outside the engine
// from each layer's public functions — server.handleConn, DB.ExecContext,
// DB.runSelect and DB.execWriteBatch, call for call — with a span around
// every call. It exists so the layers can be timed without touching them;
// trace.coverage checks that it does the work the engine does, and every
// reply is compared with the server's.
type pipeline struct {
	cat      *catalog.Catalog
	cache    *plancache.Cache
	log      *wal.Log
	parallel int
	tr       *tracer

	// Per-statement observations the spans do not carry.
	resultBytes  []float64
	scanRatio    []float64 // rows scanned per row returned; -1 for a write
	inputMS      []float64 // replayed spreadsheet input scans, per statement
	rulesMS      []float64 // replayed rule evaluation, per statement
	cells        []float64
	rulesVec     int // rules the planner marked vectorized
	rulesAll     int
	elapsed      []float64 // whole traced statement incl. replays, ms
	pendingSheet []sheetRun
}

// sheetRun is one spreadsheet node's cache-miss execution, captured by the
// structure hook for the replays.
type sheetRun struct {
	node     *plan.Spreadsheet
	pristine *core.PartitionSet
}

func newPipeline(data *apb.Data, walDir string, tr *tracer) (*pipeline, error) {
	p := &pipeline{cat: catalog.New(), cache: plancache.New(64 << 20), parallel: runtime.NumCPU(), tr: tr}
	if err := data.Install(p.cat); err != nil {
		return nil, err
	}
	p.cat.PublishAll()
	var err error
	if p.log, err = wal.Open(walDir, wal.SyncGroup, 0); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *pipeline) close() error { return p.log.Close() }

// newExecutor mirrors DB.newExecutor for the server's configuration
// (Workers: 0, Parallel: nproc, everything else default).
func (p *pipeline) newExecutor(snap *catalog.Snapshot) *exec.Executor {
	ex := exec.New(p.cat, exec.Options{Parallel: p.parallel, Snap: snap, FastLocalPath: true})
	ex.Opts.PlanOpts = &plan.Options{Parallel: p.parallel, Exec: ex}
	return ex
}

// handle serves one request frame and returns the response frame, as
// server.handleConn and runQuery do, then decodes it as the client does.
func (p *pipeline) handle(frame []byte) ([]byte, error) {
	p.tr.stmt++
	p.pendingSheet = p.pendingSheet[:0]
	start := time.Now()
	root := p.tr.begin("server.statement")
	var body string
	var err error
	p.tr.in("wire.decode_request", func() { _, body, err = wire.DecodeRequest(frame) })
	if err != nil {
		return nil, err
	}
	res, err := p.exec(body)
	if err != nil {
		return nil, err
	}
	var cols, kinds []string
	p.tr.in("server.result_columns", func() { cols, kinds = resultColumns(res) })
	var payload []byte
	p.tr.in("wire.encode_result", func() { payload = wire.EncodeResult(cols, kinds, res.Rows) })
	p.tr.in("wire.decode_response", func() { _, err = wire.DecodeResponse(payload) })
	p.tr.end(root)
	if err != nil {
		return nil, err
	}
	p.resultBytes = append(p.resultBytes, float64(len(payload)))
	p.replaySheets()
	p.elapsed = append(p.elapsed, ms(time.Since(start)))
	return payload, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exec mirrors DB.ExecContext for a one-statement batch.
func (p *pipeline) exec(sql string) (*exec.Result, error) {
	var fp uint64
	var err error
	p.tr.in("parser.fingerprint", func() { fp, err = parser.Fingerprint(sql) })
	if err != nil {
		return nil, err
	}
	var stmts []sqlast.Statement
	var cached bool
	p.tr.in("plancache.text", func() { stmts, cached = p.cache.Text(fp) })
	if !cached {
		p.tr.in("parser.parse", func() { stmts, err = parser.Parse(sql) })
		if err != nil {
			return nil, err
		}
		p.tr.in("plancache.set_text", func() { p.cache.SetText(fp, stmts) })
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("pipeline: want one statement, got %d", len(stmts))
	}
	if sel, ok := stmts[0].(*sqlast.SelectStmt); ok {
		return p.runSelect(sel)
	}
	return p.runWrite(stmts[0])
}

// structHook is the exec.StructureCache the DB hands the executor, plus the
// one boundary inside Execute visible from outside: Lookup runs when a
// spreadsheet node starts, Store right after its access structure is built
// and before any rule runs.
type structHook struct {
	p    *pipeline
	e    *plancache.Entry
	open map[*plan.Spreadsheet]int
}

func (h *structHook) Lookup(n *plan.Spreadsheet) (*core.PartitionSet, bool) {
	ps, ok := h.p.cache.Structure(h.e, n)
	if !ok {
		// From here to Store: the node's input scan and reference
		// sheets (exec), then the structure build and its pristine
		// clone (core). replaySheets measures the exec part again so it
		// can be taken out.
		h.open[n] = h.p.tr.begin("core.input_and_build")
	}
	return ps, ok
}

func (h *structHook) Store(n *plan.Spreadsheet, ps *core.PartitionSet) {
	if i, ok := h.open[n]; ok {
		h.p.tr.end(i)
		delete(h.open, n)
		h.p.pendingSheet = append(h.p.pendingSheet, sheetRun{node: n, pristine: ps})
	}
	h.p.cache.StoreStructure(h.e, n, ps)
}

// runSelect mirrors DB.runSelect.
func (p *pipeline) runSelect(stmt *sqlast.SelectStmt) (*exec.Result, error) {
	snap := catalog.NewSnapshot()
	var e *plancache.Entry
	var hit *exec.Result
	p.tr.in("plancache.result", func() {
		e = p.cache.Entry(plancache.Key{Stmt: sqlast.Fingerprint(stmt), Cfg: 1})
		if schema, rows, _, ok := p.cache.Result(e, p.cat); ok {
			hit = &exec.Result{Schema: schema, Rows: rows}
		}
	})
	if hit != nil {
		p.scanRatio = append(p.scanRatio, 0)
		return hit, nil
	}
	ex := p.newExecutor(snap)
	var node plan.Node
	var deps []plancache.Dep
	p.tr.in("plancache.plan", func() { node, deps, _ = p.cache.Plan(e, p.cat) })
	if node == nil {
		var err error
		p.tr.in("plan.build", func() { node, err = plan.Build(p.cat, stmt, ex.Opts.PlanOpts) })
		if err != nil {
			return nil, err
		}
		p.tr.in("plancache.set_plan", func() {
			var sheets map[*plan.Spreadsheet]bool
			deps, sheets = plancache.CollectDeps(p.cat, stmt, node, snap)
			p.cache.SetPlan(e, stmt, node, deps, sheets)
		})
	}
	hook := &structHook{p: p, e: e, open: map[*plan.Spreadsheet]int{}}
	ex.Opts.Structs = hook
	var res *exec.Result
	var err error
	p.tr.in("exec.execute", func() {
		res, err = ex.Execute(node, nil)
		// A failed statement never reaches Store; close what Lookup opened.
		for n, i := range hook.open {
			p.tr.end(i)
			delete(hook.open, n)
		}
	})
	if err != nil {
		return nil, err
	}
	if plancache.DepsMatchSnapshot(deps, snap) {
		p.tr.in("plancache.set_result", func() { p.cache.SetResult(e, res.Schema, res.Rows) })
	}
	scanned := 0
	walk(node, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scanned += len(s.Table.Img().Rows)
		}
	})
	p.scanRatio = append(p.scanRatio, float64(scanned)/float64(max(1, len(res.Rows))))
	return res, nil
}

func walk(n plan.Node, fn func(plan.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walk(c, fn)
	}
}

// runWrite mirrors DB.execWriteBatch plus the commit that follows it.
func (p *pipeline) runWrite(stmt sqlast.Statement) (*exec.Result, error) {
	var pos wal.Pos
	var err error
	p.tr.in("wal.append", func() { pos, err = p.log.Append(wal.KindStmt, []byte(sqlast.FormatStatement(stmt))) })
	if err != nil {
		return nil, err
	}
	p.scanRatio = append(p.scanRatio, -1)
	ex := p.newExecutor(nil)
	var res *exec.Result
	p.tr.in("exec.statement", func() { res, err = ex.ExecStatement(stmt) })
	p.tr.in("catalog.publish_all", func() { p.cat.PublishAll() })
	if err != nil {
		return nil, err
	}
	p.tr.in("wal.commit", func() { err = p.log.Commit(pos) })
	return res, err
}

// replaySheets re-runs, for every spreadsheet node the statement built, the
// two pieces Execute does not delimit: the node's input scan with its
// reference sheets (exec work inside the core.input_and_build span) and the
// rule evaluation over the pristine structure (core work inside
// exec.execute, after Store). They are root spans named replay.* so the
// statement's own spans stay what the server does; the metrics use them to
// move time between exec and core.
func (p *pipeline) replaySheets() {
	var inputMS, rulesMS, cells float64
	for _, run := range p.pendingSheet {
		n := run.node
		ex := p.newExecutor(catalog.NewSnapshot())
		i := p.tr.begin("replay.exec_input")
		for _, in := range n.Children() {
			_, _ = ex.Execute(in, nil) // ran without error a moment ago
		}
		p.tr.end(i)
		inputMS += float64(p.tr.spans[i].dur()) / 1e6
		i = p.tr.begin("replay.core_rules")
		rows, _, _ := n.Model.Run(nil, core.RunOptions{
			Parallel: p.parallel, BuildWorkers: p.parallel, Promoted: n.Promoted,
			Prebuilt: run.pristine.CloneForReuse(), FastLocal: true,
		})
		p.tr.end(i)
		rulesMS += float64(p.tr.spans[i].dur()) / 1e6
		cells += float64(len(rows) * len(n.Model.MeasureNames()))
		p.rulesAll += len(n.RuleVecNotes)
		for _, note := range n.RuleVecNotes {
			if strings.HasPrefix(note, "yes") {
				p.rulesVec++
			}
		}
	}
	p.inputMS = append(p.inputMS, inputMS)
	p.rulesMS = append(p.rulesMS, rulesMS)
	p.cells = append(p.cells, cells)
}

// resultColumns is server.resultColumns: the wire's column kinds are the
// kind of each column's first non-NULL value.
func resultColumns(res *exec.Result) (cols, kinds []string) {
	for _, c := range res.Schema.Cols {
		cols = append(cols, c.Name)
	}
	kinds = make([]string, len(cols))
	for i := range kinds {
		k := types.KindNull
		for _, row := range res.Rows {
			if i < len(row) && row[i].K != types.KindNull {
				k = row[i].K
				break
			}
		}
		kinds[i] = k.String()
	}
	return cols, kinds
}

// --- direct measurements of layers no statement span isolates ---

// microResult holds the dataset-level layer costs, measured by calling the
// layer's function on the cube directly.
type microResult struct {
	imageBuildMS, selNSPerRow, exprNSPerRow float64
	insertUSPerRow, publishUS               float64
}

func median3(fn func() float64) float64 {
	return median([]float64{fn(), fn(), fn()})
}

func measureMicro(data *apb.Data) (microResult, error) {
	var m microResult
	cat := catalog.New()
	if err := data.Install(cat); err != nil {
		return m, err
	}
	cat.PublishAll()
	cube, _ := cat.Get("apb_cube")
	n := len(cube.Rows)
	var img *colstore.Table
	m.imageBuildMS = median3(func() float64 {
		start := time.Now()
		img = colstore.FromRows(cube.Schema.Len(), cube.Rows)
		return ms(time.Since(start))
	})

	// The kernels the planner compiles for a filter and a projection of
	// the kind scan_cold sends, run over the whole cube image.
	stmts, err := parser.Parse(`SELECT s * 1.05 + 1 AS x FROM apb_cube WHERE h = 'chan1' AND s > 500`)
	if err != nil {
		return m, err
	}
	ex := exec.New(cat, exec.Options{Snap: catalog.NewSnapshot()})
	node, err := plan.Build(cat, stmts[0].(*sqlast.SelectStmt), &plan.Options{Exec: ex})
	if err != nil {
		return m, err
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	out := make([]int32, 0, n)
	walk(node, func(x plan.Node) {
		switch x := x.(type) {
		case *plan.Scan:
			if x.FilterK.Valid() {
				m.selNSPerRow = median3(func() float64 {
					start := time.Now()
					x.FilterK.Run(img, nil, nil, all, out[:0])
					return float64(time.Since(start)) / float64(n)
				})
			}
		case *plan.Project:
			if len(x.ExprsK) == 1 && x.ExprsK[0].Valid() && x.ExprsK[0].Supported(img, nil) {
				m.exprNSPerRow = median3(func() float64 {
					start := time.Now()
					_, _ = x.ExprsK[0].Run(img, nil, nil, all)
					return float64(time.Since(start)) / float64(n)
				})
			}
		}
	})

	// Table.Insert and Table.Publish on ingest-sized batches, on a scratch
	// table that starts as a copy of the cube.
	scratch, err := catalog.New().Create("scratch", cube.Schema)
	if err != nil {
		return m, err
	}
	scratch.Rows = append(scratch.Rows, cube.Rows...)
	batch := make([]types.Row, ingestRowsPerInsert)
	for i := range batch {
		batch[i] = types.Row{types.NewString("cust00"), types.NewString("chan0"), types.NewString("2000-01"),
			types.NewString("TOP"), types.NewFloat(float64(i))}
	}
	var ins, pub []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := scratch.Insert(batch...); err != nil {
			return m, err
		}
		mid := time.Now()
		scratch.Publish()
		ins = append(ins, float64(mid.Sub(start))/1e3/float64(len(batch)))
		pub = append(pub, float64(time.Since(mid))/1e3)
	}
	m.insertUSPerRow, m.publishUS = p50(ins), p50(pub)
	return m, nil
}

// measureWALReplay times Log.Replay over the directory a killed server left.
func measureWALReplay(dir string) (float64, int, error) {
	records := 0
	secs, err := timeIt(func() error {
		l, err := wal.Open(dir, wal.SyncNone, 0)
		if err != nil {
			return err
		}
		defer l.Close()
		return l.Replay(func(wal.Record) error { records++; return nil })
	})
	return secs, records, err
}
