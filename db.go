// Package sqlsheet is an embeddable SQL engine implementing the SQL
// spreadsheet clause of Witkowski et al., "Spreadsheets in RDBMS for OLAP"
// (SIGMOD 2003) — the design that became the Oracle MODEL clause.
//
// Relations are treated as n-dimensional arrays: the SPREADSHEET clause
// classifies a query's columns into PARTITION BY (PBY), DIMENSION BY (DBY)
// and MEASURES (MEA) columns and evaluates a list of assignment formulas
// over the cells they address, with symbolic cell references, cv(), ranges,
// aggregates, UPSERT semantics, reference spreadsheets, cycles and
// iteration. The engine includes the paper's compile-time analysis
// (dependency graphs, scan-minimizing levels, formula pruning, predicate
// pushing) and run-time machinery (two-level hash access structure with
// optional disk spill, acyclic/cyclic/sequential algorithms, and
// partition-parallel execution).
//
// Basic usage:
//
//	db := sqlsheet.Open()
//	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
//	db.MustExec(`INSERT INTO f VALUES ('west','dvd',2001,10.5)`)
//	res, err := db.Query(`
//	    SELECT r, p, t, s FROM f
//	    SPREADSHEET PBY(r) DBY(p, t) MEA(s)
//	    ( s['dvd', 2002] = s['dvd', 2001] * 1.6 )`)
package sqlsheet

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/exec"
	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/plancache"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
	"sqlsheet/internal/wire"
)

// Value is the scalar value type of results.
type Value = types.Value

// Row is one result tuple.
type Row = types.Row

// DB is an embedded database: a catalog of tables plus session options.
//
// Concurrency contract (audited for the serving layer):
//   - Every SELECT — Query*, Explain*, a SELECT in an Exec batch — goes
//     through one function (read). Any number may run concurrently and none
//     takes the statement lock: each pins per-table MVCC images
//     (catalog.Snapshot) published by the last completed mutation and reads
//     only those, so readers never block writers and writers never block
//     readers. A read's one lock is its cache entry's ExecMu, taken by
//     TryLock: a caller that finds it held goes on privately, so no read,
//     Explain included, waits for another.
//   - Every mutation — an Exec batch containing anything besides SELECTs
//     (DDL, DML, REFRESH), CreateTable, Insert, LoadCSV, InstallAPB, and
//     each record recovery replays — goes through one function (mutate, in
//     write.go): under the exclusive statement lock, which serializes
//     mutations against each other, it is applied, appended to the log and
//     only then published (catalog.PublishAll), so snapshot readers observe
//     statement-boundary states only — never a half-applied mutation, and
//     never one that failed: a statement that returns an error has changed
//     nothing, is not in the log and was never published. Configure takes
//     the same lock to swap the session.
//   - Writers mutate table row slices copy-on-write (UPDATE and DELETE
//     replace the slice; INSERT appends past every published image's
//     clipped length), so a pinned image is immutable for its lifetime.
//   - catalog.Table.Version is atomic besides all this: the plan cache
//     probes versions lock-free, and the exclusive path bumps them; result
//     dependencies are stamped with the executing statement's *pinned*
//     versions, so a result computed against snapshot V is never registered
//     (or served) under a version installed mid-flight.
//   - When a write-ahead log is enabled (EnableWAL), a mutation's record is
//     appended after it applies and before it is published, and the call is
//     acknowledged only after the record is durable per the configured
//     SyncMode; EnableWAL must be called before the DB is shared between
//     goroutines.
type DB struct {
	cat *catalog.Catalog
	// sess holds the session options and their fingerprint as one
	// immutable value: lock-free readers load it once per call and see a
	// consistent configuration even if Configure runs mid-flight.
	sess atomic.Pointer[session]
	// cache is the serving-path statement cache: parsed ASTs, optimized
	// plans (with their compiled-closure registries), pristine spreadsheet
	// access structures and full result sets, all keyed by statement
	// fingerprint × configuration fingerprint and invalidated by catalog
	// version counters.
	cache *plancache.Cache
	// stmtMu is the statement-level lock implementing the contract above:
	// mutations own it exclusively; snapshot readers skip it entirely. Its
	// shared mode is taken only to read db.wal (WALEnabled, WALCounters).
	stmtMu sync.RWMutex
	// wal, when non-nil, is the write-ahead log. EnableWAL attaches it after
	// replaying it (so nothing replayed is logged again) and Close detaches
	// it, both under the exclusive statement lock. failed is the error that
	// poisoned it (wal.Log.Err): a statement is applied and not logged, so
	// the DB refuses every later mutation, also once the log is detached.
	wal    *wal.Log
	failed error
}

// session is one immutable configuration state; DB.sess swaps whole values.
type session struct {
	opts Config
	// fp fingerprints opts so entries cached under other knob settings are
	// never served.
	fp uint64
}

// PushStrategy re-exports the reference-pushing transform selection.
type PushStrategy = plan.PushStrategy

// Push strategies for predicates on functionally independent dimensions
// (§4 of the paper; compared in Fig. 2).
const (
	PushExtended    = plan.PushExtended
	PushRefSubquery = plan.PushRefSubquery
	PushUnfold      = plan.PushUnfold
	PushNone        = plan.PushNone
)

// JoinMethod re-exports join method forcing.
type JoinMethod = plan.JoinMethod

// Join methods; ForceJoin(JoinHash) reproduces the "subquery - forced hash"
// series of Fig. 2.
const (
	JoinAuto       = plan.JoinAuto
	JoinHash       = plan.JoinHash
	JoinNestedLoop = plan.JoinNestedLoop
)

// Config holds the session options a server operator sets. Everything that
// exists only to measure one optimization against its baseline lives under
// Ablate.
type Config struct {
	// Parallel is the spreadsheet degree of parallelism (number of PEs).
	Parallel int
	// Workers is the operator worker-pool size for morsel-driven parallel
	// relational operators (filter, project, hash join, group-by): 0 = one
	// worker per CPU core, 1 = serial operators. Results are row-for-row
	// identical to serial execution for any setting. The pool and the
	// spreadsheet PEs share one core budget of max(Workers, Parallel), so
	// combining both cannot oversubscribe the host.
	Workers int
	// MemoryBudget bounds each first-level partition's resident memory in
	// bytes; 0 = unbounded. Exceeding it spills blocks to disk under a
	// weighted-LRU policy (Fig. 5's regime). Result reuse is off whenever it
	// is set: the budgeted regime measures access-structure I/O, which a
	// result hit would bypass.
	MemoryBudget int64
	// SpillDir is the spill directory (default: the OS temp dir).
	SpillDir string
	// PlanCacheBudget bounds the cache's resident bytes (cached results and
	// access structures dominate). 0 shares MemoryBudget when that is set,
	// and otherwise defaults to 64 MiB.
	PlanCacheBudget int64
	// PromoteIndependentDims enables S4-style duplication of an
	// independent dimension into the distribution key when PBY is empty.
	PromoteIndependentDims bool
	// EnableMVRewrite lets the optimizer answer subqueries from
	// materialized views whose definition matches exactly. Off by default
	// because a rewrite may serve data stale since the last REFRESH.
	EnableMVRewrite bool
	// Ablate holds the ablation toggles. The zero value — every optimization
	// on, every size automatic — is the serving configuration; only tests
	// and internal/experiments populate it.
	Ablate Ablation
}

// Ablation groups every ablation toggle, each declared once by the layer
// that reads it: the cache toggles here, the rest in the executor's, the
// optimizer's and the spreadsheet engine's own structs. Apart from
// Exec.MorselSize (which reorders floating-point group-by merges) no setting
// changes result bytes.
type Ablation struct {
	// DisablePlanCache turns the serving-path statement cache off entirely:
	// every call re-lexes, re-parses, re-plans, re-compiles and re-executes.
	DisablePlanCache bool
	// DisableResultCache keeps the plan/closure/access-structure cache but
	// disables full result-set reuse, so every call re-executes its plan.
	DisableResultCache bool
	// Exec: operator morsel size, synchronous spill.
	Exec exec.Ablation
	// Plan: Fig. 2's push strategy and join method, formula pruning,
	// predicate pushing, filter pushdown.
	Plan plan.Ablation
	// Engine: first-level bucket count, range-probe optimization, the
	// vectorized layers and their batch-size cutoff.
	Engine core.Ablation
}

// defaultPlanCacheBudget bounds the serving-path cache when neither
// PlanCacheBudget nor MemoryBudget is configured.
const defaultPlanCacheBudget int64 = 64 << 20

func cacheBudget(cfg Config) int64 {
	if cfg.PlanCacheBudget > 0 {
		return cfg.PlanCacheBudget
	}
	if cfg.MemoryBudget > 0 {
		return cfg.MemoryBudget
	}
	return defaultPlanCacheBudget
}

// configFingerprint hashes every Config field, the nested Ablate structs
// included (%+v prints them field by field), so sessions with different
// knobs never share cache entries (MorselSize legally changes result bytes:
// it reorders float group-by merges).
func configFingerprint(cfg Config) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	text := fmt.Sprintf("%+v", cfg)
	h := uint64(offset64)
	for i := 0; i < len(text); i++ {
		h ^= uint64(text[i])
		h *= prime64
	}
	return h
}

// Open creates an empty database with default options.
func Open() *DB {
	db := &DB{cat: catalog.New(), cache: plancache.New(defaultPlanCacheBudget)}
	db.sess.Store(&session{fp: configFingerprint(Config{})})
	return db
}

// Configure replaces the session options. It takes the exclusive statement
// lock, so in-flight mutations finish under the old options; lock-free
// readers that already loaded the previous session finish under it too
// (each call sees one consistent configuration). Entries cached under
// previous options stay resident until evicted but are keyed away by the
// config fingerprint.
func (db *DB) Configure(cfg Config) {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	db.sess.Store(&session{opts: cfg, fp: configFingerprint(cfg)})
	db.cache.SetBudget(cacheBudget(cfg))
}

// Options returns the current session options.
func (db *DB) Options() Config { return db.sess.Load().opts }

// Result is a materialized query result.
//
// Rows are shared and read-only: a repeated statement may be answered from
// the result cache, which hands every caller the same Row values, so writing
// into a Row (res.Rows[i][j] = …) changes what later identical queries
// return. The top-level slice belongs to the caller: appending to it,
// truncating it or sorting it affects no one else.
type Result struct {
	Columns []string
	Rows    []Row
	inner   *exec.Result
	// hit is the result-cache hit that answered the statement, if one did.
	hit *plancache.Hit
}

// Reply is the result's wire reply: the payload of the OK frame sqlsheetd
// sends for it. A result the cache served answers with the reply stored on
// its cache entry, encoded from the cache's own rows on the result's first
// hit and kept for every hit after it; any other result is encoded from
// Columns and Rows as they are.
func (r *Result) Reply() []byte {
	encode := func(rows []Row) []byte { return wire.EncodeReply(r.Columns, rows) }
	if r.hit != nil {
		return r.hit.Reply(encode)
	}
	return encode(r.Rows)
}

// String renders the result as an aligned table.
func (r *Result) String() string {
	if r.inner == nil {
		return "(no rows)\n"
	}
	return r.inner.FormatTable()
}

// prepare is the shared entry step for every statement path: it parses sql
// through the statement-text cache, so a repeated text skips the parser
// entirely (the fingerprint is whitespace- and case-insensitive, so
// reformatted texts share the parse too), and returns each statement's
// plan-cache key, computed once per parse (plancache.StmtKeys).
func (db *DB) prepare(s *session, sql string) ([]sqlast.Statement, []uint64, error) {
	if s.opts.Ablate.DisablePlanCache {
		return parseWithKeys(sql)
	}
	fp, err := parser.Fingerprint(sql)
	if err != nil {
		// Lexically invalid; let the parser produce its usual error.
		return parseWithKeys(sql)
	}
	return db.cache.Prepare(fp, func() ([]sqlast.Statement, error) { return parser.Parse(sql) })
}

// parseWithKeys is prepare without the text cache. The keys are zero: with
// the cache off no read has an entry to look up.
func parseWithKeys(sql string) ([]sqlast.Statement, []uint64, error) {
	stmts, err := parser.Parse(sql)
	return stmts, make([]uint64, len(stmts)), err
}

// readMode says how far read takes a SELECT and what it reports.
type readMode uint8

const (
	// serve answers the query, from a cached result when one is valid.
	serve readMode = iota
	// analyze always executes, and reports the plan and what was reused.
	analyze
	// explain stops after planning and reports the plan.
	explain
)

// readOutcome is what a read reports besides its rows: the executor's
// statistics (ops.Cache holds the per-call cache flags) and, in analyze and
// explain mode, the plan text and its cache annotations.
type readOutcome struct {
	sheet blockstore.Stats
	ops   exec.Stats
	plan  string // plan.Explain of the plan read used
	notes string // "cache: …" lines; none when the cache is off
}

// read is the one read path: every SELECT, whatever public call it arrived
// through, lives its whole life here — look up the cache entry, answer from
// a cached result, claim the entry, pin a snapshot and plan, execute, store
// the result — each stage one step, in that order. key is the statement's
// plan-cache key from prepare.
//
// A cache-off session has no entry, and neither has a caller that finds the
// entry claimed by a concurrent execution of the same statement: cached
// plans are stateful (lazy Analyze, closure registry, per-run reference-sheet
// data), so one execution of an entry runs at a time, and a caller that finds
// it busy plans and executes privately instead of queueing — concurrent
// identical statements never serialize behind each other, and Explain never
// waits. "Cache off" and "entry busy" are therefore the same path.
//
// Each call pins its own MVCC snapshot: planning (which may execute reference
// subqueries), execution and dependency stamping all read the same pinned
// images, so a writer installing new versions mid-flight can waste this
// call's cache stores but never taint them.
func (db *DB) read(ctx context.Context, s *session, stmt *sqlast.SelectStmt, key uint64, mode readMode) (*Result, readOutcome, error) {
	var out readOutcome
	if err := ctx.Err(); err != nil {
		return nil, out, err
	}
	// 1. Look up the entry.
	var e *plancache.Entry
	if !s.opts.Ablate.DisablePlanCache {
		e = db.cache.Entry(plancache.Key{Stmt: key, Cfg: s.fp})
	}
	// Results are reused only unbudgeted: the budgeted regime measures
	// access-structure I/O, which a result hit would bypass.
	reuse := e != nil && !s.opts.Ablate.DisableResultCache && s.opts.MemoryBudget == 0
	// 2. A served query takes a valid cached result as its answer, and with
	// it the entry's stored reply (Result.Reply).
	if reuse && mode == serve {
		if hit, ok := db.cache.Hit(e, db.cat); ok {
			out.ops.Cache = exec.CacheStats{PlanHit: true, ResultHit: true}
			res := wrapResult(&exec.Result{Schema: hit.Schema, Rows: hit.Rows()})
			res.hit = hit
			return res, out, nil
		}
	}
	// 3. Claim the entry; a busy one means going on with none.
	if e != nil && e.ExecMu.TryLock() {
		defer e.ExecMu.Unlock()
	} else {
		e, reuse = nil, false
	}
	// 4. Pin the snapshot and get the plan: the entry's, or one built against
	// the snapshot and registered with the dependencies stamped from its pins.
	snap := catalog.NewSnapshot()
	ex := db.newExecutor(ctx, s, snap)
	var p plan.Node
	var deps []plancache.Dep
	planHit := false
	if e != nil {
		p, deps, planHit = db.cache.Plan(e, db.cat)
	}
	if p == nil {
		var err error
		if p, err = plan.Build(db.cat, stmt, ex.Opts.PlanOpts); err != nil {
			return nil, readOutcome{}, err
		}
		if e != nil {
			var sheets map[*plan.Spreadsheet]bool
			deps, sheets = plancache.CollectDeps(db.cat, stmt, p, snap)
			db.cache.SetPlan(e, stmt, p, deps, sheets)
		}
	}
	if mode != serve {
		out.plan = plan.Explain(p)
		if !s.opts.Ablate.DisablePlanCache {
			out.notes = "cache: plan " + hitMiss(planHit) + "\n"
		}
	}
	// 5. Explain stops at the plan.
	if mode == explain {
		return nil, out, nil
	}
	// 6. Execute, reusing the entry's access structures; spill-backed
	// structures rebuild per run.
	if e != nil && s.opts.MemoryBudget == 0 {
		ex.Opts.Structs = cacheStructs{c: db.cache, e: e}
	}
	res, err := ex.Execute(p, nil)
	if err != nil {
		return nil, readOutcome{}, err
	}
	out.sheet, out.ops = ex.SheetStats, ex.ExecStats
	out.ops.Cache.PlanHit = planHit
	if mode == analyze && out.ops.Cache.StructuresReused > 0 {
		out.notes += fmt.Sprintf("cache: structure reused (table versions %s)\n", plancache.DepString(deps))
	}
	// 7. Store the result. DepsMatchSnapshot closes the staleness window: if
	// a writer installed new versions between this entry's dependency
	// stamping and this call's pins, the rows do not correspond to the stamp
	// and must not be registered under it.
	if reuse && ctx.Err() == nil && plancache.DepsMatchSnapshot(deps, snap) {
		db.cache.SetResult(e, res.Schema, res.Rows)
	}
	return wrapResult(res), out, nil
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// cacheStructs adapts a plan-cache entry to exec.StructureCache.
type cacheStructs struct {
	c *plancache.Cache
	e *plancache.Entry
}

func (s cacheStructs) Lookup(n *plan.Spreadsheet) (*core.PartitionSet, bool) {
	return s.c.Structure(s.e, n)
}

func (s cacheStructs) Store(n *plan.Spreadsheet, ps *core.PartitionSet) {
	s.c.StoreStructure(s.e, n, ps)
}

// Exec runs one or more ';'-separated statements, returning the result of
// the last one. Use it for DDL, DML and queries alike. SELECT statements go
// through the read path and its cache; everything else through the write
// path (and invalidates dependents via catalog version counters).
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecContext(context.Background(), sql)
}

// isReadOnly reports whether every statement of a batch is a SELECT (and the
// batch may therefore run without the statement lock).
func isReadOnly(stmts []sqlast.Statement) bool {
	for _, s := range stmts {
		if _, ok := s.(*sqlast.SelectStmt); !ok {
			return false
		}
	}
	return true
}

// ExecContext is Exec with cancellation: when ctx is cancelled or times out,
// execution stops at the next cancellation point (operator morsel,
// spreadsheet partition, cyclic/ITERATE iteration, partition-scan tick) and
// the context's error is returned. A batch containing DDL/DML holds the
// statement lock exclusively; a SELECT-only batch runs lock-free against
// per-statement snapshots. The lock is only acquired after cancellation is
// checked, so a timed-out request never queues behind a writer just to
// fail. A batch stops at its first failing statement: that statement has
// changed nothing, the ones before it stay applied. With a write-ahead log
// enabled the call returns, on either exit, only after the records of the
// statements that did apply are durable per the configured SyncMode (see
// mutate).
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	s := db.sess.Load()
	stmts, keys, err := db.prepare(s, sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return nil, fmt.Errorf("empty statement")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var last *Result
	if isReadOnly(stmts) {
		for i, stmt := range stmts {
			if last, _, err = db.read(ctx, s, stmt.(*sqlast.SelectStmt), keys[i], serve); err != nil {
				return nil, err
			}
		}
		return last, nil
	}
	muts := make([]mutation, len(stmts))
	for i, stmt := range stmts {
		muts[i] = db.stmtMutation(ctx, s, stmt, keys[i], &last)
	}
	if err := db.mutate(ctx, muts...); err != nil {
		return nil, err
	}
	return last, nil
}

// MustExec is Exec that panics on error (setup code and examples).
func (db *DB) MustExec(sql string) *Result {
	res, err := db.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// Query runs a single SELECT statement.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query with cancellation (see ExecContext).
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	res, _, err := db.query(ctx, sql, serve)
	return res, err
}

// query is prepare → read for the single-SELECT entry points, reproducing
// ParseQuery's error messages for a text that is not exactly one SELECT.
func (db *DB) query(ctx context.Context, sql string, mode readMode) (*Result, readOutcome, error) {
	s := db.sess.Load()
	stmts, keys, err := db.prepare(s, sql)
	if err != nil {
		return nil, readOutcome{}, err
	}
	if len(stmts) != 1 {
		return nil, readOutcome{}, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	stmt, ok := stmts[0].(*sqlast.SelectStmt)
	if !ok {
		return nil, readOutcome{}, fmt.Errorf("statement is not a query")
	}
	return db.read(ctx, s, stmt, keys[0], mode)
}

// QueryStats runs a query and also returns the spreadsheet access
// structure's I/O statistics (block loads/evictions, bytes spilled).
// Result reuse is off whenever MemoryBudget is set, so budgeted runs always
// report real I/O.
func (db *DB) QueryStats(sql string) (*Result, blockstore.Stats, error) {
	res, out, err := db.query(context.Background(), sql, serve)
	return res, out.sheet, err
}

// OpStats re-exports the per-operator execution statistics collected by the
// morsel-driven parallel operators (rows, morsels, workers, elapsed time).
type OpStats = exec.Stats

// QueryOpStats runs a query and also returns the per-operator parallel
// execution statistics. Operators that ran serially (input below the morsel
// threshold, or not parallelizable) do not appear. Stats.Cache carries the
// serving-path cache's per-call flags (CacheCounters has the cumulative
// totals); a result hit reports no operator lines (nothing executed).
func (db *DB) QueryOpStats(sql string) (*Result, OpStats, error) {
	res, out, err := db.query(context.Background(), sql, serve)
	return res, out.ops, err
}

// ExplainAnalyze executes the query and returns the optimized plan followed
// by the per-operator parallel execution statistics (EXPLAIN ANALYZE style)
// and cache annotations. It always executes — a cached result is never
// served — but does reuse the cached plan and access structures, so the
// annotations show exactly what a repeated Query call would reuse.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	_, out, err := db.query(context.Background(), sql, analyze)
	if err != nil {
		return "", err
	}
	return out.plan + "\nexecution:\n" + out.ops.String() + out.notes, nil
}

// Explain returns the optimized plan of a query as indented text, including
// spreadsheet analysis (levels, pruned formulas, pushed predicates) and,
// when the cache is enabled, whether the plan came from it. It never waits:
// while the statement's cache entry is busy executing, it plans privately
// and reports a miss.
func (db *DB) Explain(sql string) (string, error) {
	_, out, err := db.query(context.Background(), sql, explain)
	if err != nil {
		return "", err
	}
	return out.plan + out.notes, nil
}

// CreateTable registers a table programmatically. Column kinds come from
// types: use ColInt/ColFloat/ColString/ColBool helpers. A column declared
// without a kind takes one from the first write that stores a value in it —
// FLOAT for INT and FLOAT values, else their one kind — and keeps it.
func (db *DB) CreateTable(name string, cols ...Column) error {
	sc := make([]types.Column, len(cols))
	for i, c := range cols {
		sc[i] = types.Column(c)
	}
	return db.mutate(context.Background(), db.createMutation(name, sc))
}

// Column declares one table column.
type Column types.Column

// Column constructors.
func ColInt(name string) Column    { return Column{Name: name, Kind: types.KindInt} }
func ColFloat(name string) Column  { return Column{Name: name, Kind: types.KindFloat} }
func ColString(name string) Column { return Column{Name: name, Kind: types.KindString} }
func ColBool(name string) Column   { return Column{Name: name, Kind: types.KindBool} }

// Insert appends rows to a table programmatically, all of them or (when one
// does not fit the schema) none. Values may be Go ints, floats, strings,
// bools, nil, or Value.
func (db *DB) Insert(table string, rows ...[]any) error {
	conv := make([]types.Row, len(rows))
	for j, r := range rows {
		row := make(types.Row, len(r))
		for i, v := range r {
			row[i] = ToValue(v)
		}
		conv[j] = row
	}
	return db.mutate(context.Background(), db.rowsMutation(table, conv))
}

// LoadCSV bulk-loads CSV data into an existing table and returns the number
// of rows loaded. The whole reader is parsed before the statement lock is
// taken — a slow or stalled reader delays nobody — and the parsed rows then
// go in exactly as Insert's do: all of them or, when any record is malformed
// or cannot be stored, none.
func (db *DB) LoadCSV(table string, r io.Reader, skipHeader bool) (int, error) {
	t, ok := db.cat.Get(table)
	if !ok {
		return 0, fmt.Errorf("unknown table %q", table)
	}
	rows, err := catalog.ReadCSV(r, t.ReadSchema().Len(), skipHeader)
	if err != nil {
		return 0, err
	}
	if err := db.mutate(context.Background(), db.rowsMutation(table, rows)); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Tables lists the catalog's table names (materialized views included:
// their rows are stored as tables).
func (db *DB) Tables() []string { return db.cat.Names() }

// Views lists the catalog's plain view names.
func (db *DB) Views() []string { return db.cat.ViewNames() }

// MatViews lists the catalog's materialized view names.
func (db *DB) MatViews() []string { return db.cat.MatViewNames() }

// TableRows returns the row count of a table (0 if absent), read from the
// table's published MVCC image so it never blocks behind a writer.
func (db *DB) TableRows(name string) int {
	t, ok := db.cat.Get(name)
	if !ok {
		return 0
	}
	return len(t.Img().Rows)
}

// CacheCounters is a snapshot of the serving-path cache's cumulative
// counters, re-exported for the metrics endpoint and monitoring.
type CacheCounters = plancache.Counters

// CacheCounters snapshots the statement cache's cumulative statistics.
func (db *DB) CacheCounters() CacheCounters { return db.cache.Counters() }

// ImageCounters is a snapshot of how the columnar forms of table images came
// to be: FullBuilds transposed every row (each for one reason, listed in
// Fallbacks: "no-lineage" when there was nothing to derive from, otherwise
// the part of the delta the previous form's representation could not take),
// Derived were made from the previous version's form at the cost of the
// DerivedRows the version touched.
type ImageCounters = mvcc.CounterValues

// ImageCounters snapshots the table-image build statistics.
func (db *DB) ImageCounters() ImageCounters { return db.cat.ImageCounters() }

// ToValue converts a Go value into an engine Value.
func ToValue(v any) Value {
	switch x := v.(type) {
	case nil:
		return types.Null
	case int:
		return types.NewInt(int64(x))
	case int32:
		return types.NewInt(int64(x))
	case int64:
		return types.NewInt(x)
	case float32:
		return types.NewFloat(float64(x))
	case float64:
		return types.NewFloat(x)
	case string:
		return types.NewString(x)
	case bool:
		return types.NewBool(x)
	case types.Value:
		return x
	}
	return types.NewString(fmt.Sprint(v))
}

// newExecutor builds an executor for one statement. snap is a SELECT's MVCC
// snapshot: every table access (including plan-time reference-subquery
// execution, since the executor doubles as the planner's RefExecutor) pins
// and reads published images. DML executors pass nil and get a snapshot of
// their own, which under the exclusive statement lock pins the live state at
// statement start. The ablation structs go down whole.
func (db *DB) newExecutor(ctx context.Context, s *session, snap *catalog.Snapshot) *exec.Executor {
	o := s.opts
	ex := exec.New(db.cat, exec.Options{
		Ctx:          ctx,
		Parallel:     o.Parallel,
		Workers:      o.Workers,
		MemoryBudget: o.MemoryBudget,
		SpillDir:     o.SpillDir,
		Ablate:       o.Ablate.Exec,
		Engine:       o.Ablate.Engine,
		Snap:         snap,
	})
	ex.Opts.PlanOpts = &plan.Options{
		Ablate:                 o.Ablate.Plan,
		Engine:                 o.Ablate.Engine,
		Parallel:               o.Parallel,
		Workers:                o.Workers,
		PromoteIndependentDims: o.PromoteIndependentDims,
		EnableMVRewrite:        o.EnableMVRewrite,
		Exec:                   ex,
	}
	return ex
}

func wrapResult(res *exec.Result) *Result {
	out := &Result{inner: res, Rows: res.Rows}
	for _, c := range res.Schema.Cols {
		out.Columns = append(out.Columns, c.Name)
	}
	return out
}

// Parse exposes the SQL parser for tooling (returns the statement count).
func Parse(sql string) (int, error) {
	stmts, err := parser.Parse(sql)
	return len(stmts), err
}
