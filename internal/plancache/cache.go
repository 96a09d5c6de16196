// Package plancache implements the serving-path statement cache: a sharded,
// byte-budgeted LRU keyed by statement fingerprint × session configuration.
// An entry accumulates, in order of cost, the parsed AST, the optimized plan
// (whose spreadsheet Model carries the eval.Compile closure registry), the
// pristine two-level hash access structures built for the plan's spreadsheet
// nodes, the full result set and, once the result is served again, its
// encoded reply. Every cached artifact downstream of the
// AST is guarded by a dependency snapshot — the identity and version of each
// catalog object the statement can read — and is dropped the moment any
// dependency moved (DML bumps table versions; DDL changes object identity).
//
// Locking: each shard has one mutex guarding its map, LRU list and entry
// fields; cumulative counters are atomics. An entry additionally carries
// ExecMu, which the DB layer holds while planning into or executing out of
// the entry — plans are stateful (lazy Analyze, closure registry, per-run
// reference-sheet data), so at most one execution of a given entry runs at
// a time; concurrent callers that find ExecMu busy execute privately.
package plancache

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

const numShards = 8

// maxTextEntries bounds the statement-text → AST side cache.
const maxTextEntries = 512

// entryBaseBytes is the budget charge for an entry's AST + plan, which are
// small and not worth walking to measure.
const entryBaseBytes = 2048

// Key identifies one cache entry: canonical-statement fingerprint × session
// configuration fingerprint. Two sessions with any differing knob never
// share an entry (results may legitimately differ, e.g. MorselSize changes
// float group-by merge order).
type Key struct {
	Stmt uint64
	Cfg  uint64
}

// Dep is one catalog object in an entry's dependency snapshot. Identity is
// by pointer, so DROP + CREATE under the same name invalidates even when
// the new object's version coincides; Name guards objects absent at plan
// time (creating one later must invalidate, e.g. a table shadowing a view).
type Dep struct {
	Name    string
	Table   *catalog.Table // nil if no such table at snapshot time
	Version int64          // Table.Version at snapshot time
	View    *catalog.View
	Mat     *catalog.MatView
}

// Entry is one cached statement. All fields except ExecMu are guarded by
// the owning shard's mutex and accessed through Cache methods.
type Entry struct {
	key Key

	// ExecMu serializes planning and execution of this entry. The DB layer
	// holds it across plan.Build / Executor.Execute because the cached plan
	// is stateful: the spreadsheet Model lazily computes levels and the
	// closure registry, FOR-IN lists are materialized into qualifier
	// caches, and reference-sheet data is rewritten per run.
	ExecMu sync.Mutex

	prev, next *Entry
	dead       bool // evicted or never linked; Set* calls become no-ops

	stmt      *sqlast.SelectStmt
	plan      plan.Node
	deps      []Dep
	sheets    map[*plan.Spreadsheet]bool // spreadsheet nodes owned by plan
	structs   map[*plan.Spreadsheet]*core.PartitionSet
	schema    *eval.BoundSchema
	rows      []types.Row
	hasResult bool
	// resultGen numbers the results stored in the entry, so an attach that
	// read one result never lands on its successor.
	resultGen uint64
	// reply is the result's encoded reply, attached on its first hit.
	reply []byte
	bytes int64
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*Entry
	// Intrusive LRU list: head is most recently used.
	head, tail *Entry
	bytes      int64
}

// Counters is a snapshot of the cache's cumulative statistics, the one
// declaration of them (sqlsheet.CacheCounters and the /metrics cache block
// are this struct).
type Counters struct {
	PlanHits      int64 // plan lookups answered from cache
	PlanMisses    int64 // plan lookups that had to build
	ResultHits    int64 // statements answered from cached results
	ReplyHits     int64 // result hits answered with the stored reply payload
	StructReuses  int64 // access structures served for cloning
	Evictions     int64 // entries dropped by the byte-budget LRU
	Invalidations int64 // entries dropped because a dependency version moved
}

// Cache is the sharded LRU. Safe for concurrent use.
type Cache struct {
	budget atomic.Int64 // total byte budget across shards
	shards [numShards]shard

	textMu    sync.Mutex
	text      map[uint64]parsed
	textOrder []uint64 // FIFO eviction order

	planHits      atomic.Int64
	planMisses    atomic.Int64
	resultHits    atomic.Int64
	replyHits     atomic.Int64
	structReuses  atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// New creates a cache with the given byte budget (<=0 disables result and
// structure retention but still caches ASTs and plans up to one entry's
// base charge per statement).
func New(budget int64) *Cache {
	c := &Cache{text: make(map[uint64]parsed)}
	c.budget.Store(budget)
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*Entry)
	}
	return c
}

// SetBudget replaces the byte budget; over-budget shards shrink on their
// next insertion.
func (c *Cache) SetBudget(b int64) { c.budget.Store(b) }

// Counters snapshots the cumulative statistics.
func (c *Cache) Counters() Counters {
	return Counters{
		PlanHits:      c.planHits.Load(),
		PlanMisses:    c.planMisses.Load(),
		ResultHits:    c.resultHits.Load(),
		ReplyHits:     c.replyHits.Load(),
		StructReuses:  c.structReuses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Len returns the number of resident entries (tests).
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (c *Cache) shardOf(k Key) *shard {
	return &c.shards[(k.Stmt^k.Cfg)%numShards]
}

// --- intrusive LRU list (shard.mu held) ---

func (sh *shard) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if sh.head == e {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if sh.tail == e {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) pushFront(e *Entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) touch(e *Entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// evictOver drops least-recently-used entries until the shard fits its
// budget slice. keep (the entry being served) is never evicted, so one
// oversized artifact cannot thrash itself out mid-request.
func (c *Cache) evictOver(sh *shard, keep *Entry) {
	limit := c.budget.Load() / numShards
	if limit <= 0 {
		limit = 0
	}
	for sh.bytes > limit && sh.tail != nil && sh.tail != keep {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.bytes -= victim.bytes
		victim.dead = true
		victim.clearDerived()
		victim.stmt = nil
		c.evictions.Add(1)
	}
}

// clearDerived drops everything downstream of the AST (shard.mu held).
func (e *Entry) clearDerived() {
	e.plan = nil
	e.deps = nil
	e.sheets = nil
	e.structs = nil
	e.schema = nil
	e.rows = nil
	e.hasResult = false
	e.reply = nil
	e.bytes = entryBaseBytes
}

// Entry returns the cache entry for key, creating it on first use, and
// marks it most recently used.
func (c *Cache) Entry(key Key) *Entry {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		sh.touch(e)
		return e
	}
	e := &Entry{key: key, bytes: entryBaseBytes}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.bytes += e.bytes
	c.evictOver(sh, e)
	return e
}

// depsValid checks the dependency snapshot against the live catalog:
// every object must have the same identity (pointer) and, for tables, the
// same version; objects absent at snapshot time must still be absent.
func depsValid(cat *catalog.Catalog, deps []Dep) bool {
	for i := range deps {
		d := &deps[i]
		t, _ := cat.Get(d.Name)
		if t != d.Table {
			return false
		}
		if t != nil && t.Version.Load() != d.Version {
			return false
		}
		v, _ := cat.ViewDef(d.Name)
		if v != d.View {
			return false
		}
		mv, _ := cat.MatViewDef(d.Name)
		if mv != d.Mat {
			return false
		}
	}
	return true
}

// invalidate drops an entry's derived artifacts (shard.mu held).
func (c *Cache) invalidate(sh *shard, e *Entry) {
	sh.bytes -= e.bytes
	e.clearDerived()
	sh.bytes += e.bytes
	c.invalidations.Add(1)
}

// Plan returns the entry's cached plan when its dependency snapshot is
// still current, invalidating stale entries. hit reports whether a valid
// plan was found; the miss counter covers both "no plan" and "stale plan".
func (c *Cache) Plan(e *Entry, cat *catalog.Catalog) (p plan.Node, deps []Dep, hit bool) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.plan != nil && !depsValid(cat, e.deps) {
		c.invalidate(sh, e)
	}
	if e.plan == nil {
		c.planMisses.Add(1)
		return nil, nil, false
	}
	c.planHits.Add(1)
	return e.plan, e.deps, true
}

// SetPlan records a freshly built plan with its dependency snapshot and the
// set of spreadsheet nodes the plan owns (the only nodes whose access
// structures may be cached — executor-private subquery plans are transient
// and would leak).
func (c *Cache) SetPlan(e *Entry, stmt *sqlast.SelectStmt, p plan.Node, deps []Dep, sheets map[*plan.Spreadsheet]bool) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.dead {
		return
	}
	sh.bytes -= e.bytes
	e.clearDerived()
	e.stmt = stmt
	e.plan = p
	e.deps = deps
	e.sheets = sheets
	sh.bytes += e.bytes
	sh.touch(e)
	c.evictOver(sh, e)
}

// Stmt returns the entry's cached AST, if any.
func (c *Cache) Stmt(e *Entry) *sqlast.SelectStmt {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return e.stmt
}

// Result returns the cached result set when the dependency snapshot is
// still current. The returned row slice is a fresh top-level slice (rows
// shared), so callers may append/reorder without corrupting the cache.
func (c *Cache) Result(e *Entry, cat *catalog.Catalog) (*eval.BoundSchema, []types.Row, []Dep, bool) {
	h, ok := c.Hit(e, cat)
	if !ok {
		return nil, nil, nil, false
	}
	return h.Schema, h.Rows(), h.deps, true
}

// Hit is one result-cache hit: the entry's result as the lookup found it,
// with the reply payload the entry held then.
type Hit struct {
	Schema *eval.BoundSchema
	c      *Cache
	e      *Entry
	gen    uint64
	rows   []types.Row // the entry's own slice: read-only, never handed out
	deps   []Dep
	reply  []byte
}

// Hit looks up the entry's cached result, as Result does, for a caller that
// may also serve its reply.
func (c *Cache) Hit(e *Entry, cat *catalog.Catalog) (*Hit, bool) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.plan != nil && !depsValid(cat, e.deps) {
		c.invalidate(sh, e)
	}
	if !e.hasResult {
		return nil, false
	}
	c.resultHits.Add(1)
	sh.touch(e)
	return &Hit{Schema: e.schema, c: c, e: e, gen: e.resultGen, rows: e.rows, deps: e.deps, reply: e.reply}, true
}

// Rows returns a fresh top-level copy of the hit's rows, the caller's to
// append to and reorder (the rows themselves are shared).
func (h *Hit) Rows() []types.Row {
	out := make([]types.Row, len(h.rows))
	copy(out, h.rows)
	return out
}

// Reply returns the hit's encoded reply. If the entry held one at the lookup,
// that is the answer (a reply hit). Otherwise encode renders the entry's own
// rows — never a caller's copy, which may have been reordered — and the
// payload is attached to the entry and charged to the budget, unless the
// result was replaced, invalidated or evicted since the lookup: then it
// answers this call only.
func (h *Hit) Reply(encode func(rows []types.Row) []byte) []byte {
	if h.reply != nil {
		h.c.replyHits.Add(1)
		return h.reply
	}
	reply := encode(h.rows)
	sh := h.c.shardOf(h.e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := h.e; !e.dead && e.hasResult && e.resultGen == h.gen && e.reply == nil {
		e.reply = reply
		e.bytes += int64(cap(reply))
		sh.bytes += int64(cap(reply))
		h.c.evictOver(sh, e)
	}
	return reply
}

// SetResult stores a result set against the entry's current plan. The rows
// themselves are shared with the caller; the engine never mutates result
// rows in place, and any DML that could change what the query returns bumps
// a dependency version first.
func (c *Cache) SetResult(e *Entry, schema *eval.BoundSchema, rows []types.Row) {
	kept := make([]types.Row, len(rows))
	copy(kept, rows)
	var sz int64
	for _, r := range kept {
		sz += blockstore.RowBytes(r)
	}
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.dead || e.plan == nil {
		return // evicted or invalidated while executing
	}
	sh.bytes -= e.bytes
	if e.hasResult {
		e.rows, e.schema, e.hasResult, e.reply = nil, nil, false, nil
		e.bytes = entryBaseBytes + e.structsBytes()
	}
	e.resultGen++
	e.schema = schema
	e.rows = kept
	e.hasResult = true
	e.bytes += sz
	sh.bytes += e.bytes
	sh.touch(e)
	c.evictOver(sh, e)
}

func (e *Entry) structsBytes() int64 {
	var n int64
	for _, ps := range e.structs {
		n += ps.EstimateBytes()
	}
	return n
}

// Structure returns the cached pristine access structure for one of the
// plan's spreadsheet nodes. Validity is implied: structures live and die
// with the entry's plan, whose dependency snapshot was checked when the
// plan was fetched under ExecMu.
func (c *Cache) Structure(e *Entry, n *plan.Spreadsheet) (*core.PartitionSet, bool) {
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ps, ok := e.structs[n]
	if ok {
		c.structReuses.Add(1)
	}
	return ps, ok
}

// StoreStructure caches a pristine (never evaluated) access structure for a
// plan-owned spreadsheet node.
func (c *Cache) StoreStructure(e *Entry, n *plan.Spreadsheet, ps *core.PartitionSet) {
	sz := ps.EstimateBytes()
	sh := c.shardOf(e.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.dead || e.plan == nil || !e.sheets[n] {
		return
	}
	if e.structs == nil {
		e.structs = make(map[*plan.Spreadsheet]*core.PartitionSet)
	}
	if _, dup := e.structs[n]; dup {
		return
	}
	e.structs[n] = ps
	e.bytes += sz
	sh.bytes += sz
	sh.touch(e)
	c.evictOver(sh, e)
}

// --- statement-text cache ---

// parsed is one statement text's parse with each statement's key.
type parsed struct {
	stmts []sqlast.Statement
	keys  []uint64
}

// StmtKeys returns each statement's plan-cache key (Key.Stmt): the
// sqlast.Fingerprint of a SELECT, 0 for any other statement (it has no
// entry). A key renders the whole tree, so the text cache computes it once
// per parse and keeps it beside the AST.
func StmtKeys(stmts []sqlast.Statement) []uint64 {
	keys := make([]uint64, len(stmts))
	for i, st := range stmts {
		if sel, ok := st.(*sqlast.SelectStmt); ok {
			keys[i] = sqlast.Fingerprint(sel)
		}
	}
	return keys
}

// Prepare returns the parse of the statement text whose fingerprint is fp,
// with each statement's key: the one recorded for fp, or — on a miss — what
// parse returns, recorded with its keys. The statements are shared, as
// Text's are.
func (c *Cache) Prepare(fp uint64, parse func() ([]sqlast.Statement, error)) ([]sqlast.Statement, []uint64, error) {
	c.textMu.Lock()
	p, ok := c.text[fp]
	c.textMu.Unlock()
	if ok {
		return p.stmts, p.keys, nil
	}
	stmts, err := parse()
	if err != nil {
		return nil, nil, err
	}
	keys := StmtKeys(stmts)
	c.setText(fp, parsed{stmts, keys})
	return stmts, keys, nil
}

// Text returns the parsed statements previously recorded for a text
// fingerprint. The statements are shared: callers must either treat them as
// read-only or serialize execution (the DB layer holds ExecMu around any
// execution that can write into AST node caches).
func (c *Cache) Text(fp uint64) ([]sqlast.Statement, bool) {
	c.textMu.Lock()
	defer c.textMu.Unlock()
	p, ok := c.text[fp]
	return p.stmts, ok
}

// SetText records the parse of a statement text, with its keys.
func (c *Cache) SetText(fp uint64, stmts []sqlast.Statement) {
	c.setText(fp, parsed{stmts, StmtKeys(stmts)})
}

func (c *Cache) setText(fp uint64, p parsed) {
	c.textMu.Lock()
	defer c.textMu.Unlock()
	if _, ok := c.text[fp]; ok {
		return
	}
	for len(c.textOrder) >= maxTextEntries {
		delete(c.text, c.textOrder[0])
		c.textOrder = c.textOrder[1:]
	}
	c.text[fp] = p
	c.textOrder = append(c.textOrder, fp)
}

// DepString renders a dependency snapshot's table versions for EXPLAIN
// annotations ("es=13568, g=4").
func DepString(deps []Dep) string {
	var parts []string
	for i := range deps {
		if deps[i].Table != nil {
			parts = append(parts, fmt.Sprintf("%s=%d", deps[i].Name, deps[i].Version))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}
