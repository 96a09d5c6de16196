package plancache

import (
	"fmt"
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

func testCatalog(t *testing.T, names ...string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, n := range names {
		sch := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
		if _, err := cat.Create(n, sch); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func snapDep(t *testing.T, cat *catalog.Catalog, name string) Dep {
	t.Helper()
	d := Dep{Name: name}
	if tb, ok := cat.Get(name); ok {
		d.Table, d.Version = tb, tb.Version.Load()
	}
	return d
}

// planFor builds a throwaway plan node over a catalog table; cache tests
// never execute it, they only need a non-nil plan.Node with dependencies.
func planFor(cat *catalog.Catalog, name string) plan.Node {
	tb, _ := cat.Get(name)
	return &plan.Scan{Table: tb}
}

func TestPlanHitAndVersionInvalidation(t *testing.T) {
	cat := testCatalog(t, "f")
	c := New(1 << 20)
	e := c.Entry(Key{Stmt: 1})
	deps := []Dep{snapDep(t, cat, "f")}
	c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), deps, nil)

	if _, _, hit := c.Plan(e, cat); !hit {
		t.Fatal("expected plan hit after SetPlan")
	}
	tb, _ := cat.Get("f")
	tb.Version.Add(1) // DML
	if _, _, hit := c.Plan(e, cat); hit {
		t.Fatal("expected invalidation after version bump")
	}
	got := c.Counters()
	if got.PlanHits != 1 || got.PlanMisses != 1 || got.Invalidations != 1 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss / 1 invalidation", got)
	}
}

func TestDropRecreateInvalidates(t *testing.T) {
	cat := testCatalog(t, "f")
	c := New(1 << 20)
	e := c.Entry(Key{Stmt: 2})
	c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)

	// DROP + CREATE yields a new *Table whose Version (0) matches the
	// snapshot; pointer identity must still catch it.
	cat.Drop("f")
	sch := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	if _, err := cat.Create("f", sch); err != nil {
		t.Fatal(err)
	}
	if _, _, hit := c.Plan(e, cat); hit {
		t.Fatal("expected invalidation after drop + recreate")
	}
}

func TestAbsentDependencyAppearing(t *testing.T) {
	cat := testCatalog(t, "f")
	c := New(1 << 20)
	e := c.Entry(Key{Stmt: 3})
	// Snapshot records that "g" did not exist at plan time.
	deps := []Dep{snapDep(t, cat, "f"), snapDep(t, cat, "g")}
	c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), deps, nil)

	if _, _, hit := c.Plan(e, cat); !hit {
		t.Fatal("expected hit while g stays absent")
	}
	sch := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	if _, err := cat.Create("g", sch); err != nil {
		t.Fatal(err)
	}
	if _, _, hit := c.Plan(e, cat); hit {
		t.Fatal("expected invalidation once g exists")
	}
}

func TestResultRoundTripAndCopy(t *testing.T) {
	cat := testCatalog(t, "f")
	c := New(1 << 20)
	e := c.Entry(Key{Stmt: 4})
	c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)

	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}
	c.SetResult(e, nil, rows)
	// Caller's slice must be independent of the cache's copy.
	rows[0] = types.Row{types.NewInt(99)}

	_, got, _, ok := c.Result(e, cat)
	if !ok {
		t.Fatal("expected result hit")
	}
	if got[0][0].Int() != 1 {
		t.Fatalf("cached result aliased the caller's slice: got %v", got[0][0])
	}
	// The hit's slice must likewise be a private top-level copy.
	got[1] = types.Row{types.NewInt(77)}
	_, again, _, ok := c.Result(e, cat)
	if !ok || again[1][0].Int() != 2 {
		t.Fatal("result hit returned a shared top-level slice")
	}
	if c.Counters().ResultHits != 2 {
		t.Fatalf("ResultHits = %d, want 2", c.Counters().ResultHits)
	}

	tb, _ := cat.Get("f")
	tb.Version.Add(1)
	if _, _, _, ok := c.Result(e, cat); ok {
		t.Fatal("expected result invalidation after version bump")
	}
}

func TestLRUEviction(t *testing.T) {
	cat := testCatalog(t, "f")
	// Budget admits roughly one entry per shard; big results force eviction.
	c := New(numShards * 4096)
	bigRow := types.Row{types.NewString(string(make([]byte, 8192)))}

	var entries []*Entry
	for i := 0; i < 64; i++ {
		e := c.Entry(Key{Stmt: uint64(i)})
		c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)
		c.SetResult(e, nil, []types.Row{bigRow})
		entries = append(entries, e)
	}
	got := c.Counters()
	if got.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte budget, counters = %+v", numShards*4096, got)
	}
	if n := c.Len(); n >= 64 {
		t.Fatalf("expected resident entries < 64, got %d", n)
	}
	// The most recently inserted entry must have survived (never-evict-the-
	// served-entry rule), and its artifacts must be intact.
	last := entries[len(entries)-1]
	if _, _, hit := c.Plan(last, cat); !hit {
		t.Fatal("most recently used entry was evicted")
	}
	// An evicted entry's Set* calls must be no-ops.
	var victim *Entry
	for _, e := range entries {
		if _, _, hit := c.Plan(e, cat); !hit && c.Stmt(e) == nil {
			victim = e
			break
		}
	}
	if victim == nil {
		t.Fatal("no evicted entry found")
	}
	c.SetResult(victim, nil, []types.Row{bigRow})
	if _, _, _, ok := c.Result(victim, cat); ok {
		t.Fatal("SetResult on a dead entry should be a no-op")
	}
}

func TestTextCacheFIFO(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < maxTextEntries+8; i++ {
		c.SetText(uint64(i), []sqlast.Statement{&sqlast.SelectStmt{}})
	}
	if _, ok := c.Text(0); ok {
		t.Fatal("oldest text entry should have been evicted FIFO")
	}
	if _, ok := c.Text(uint64(maxTextEntries + 7)); !ok {
		t.Fatal("newest text entry missing")
	}
	// Duplicate SetText keeps the first parse.
	first := []sqlast.Statement{&sqlast.SelectStmt{}}
	c.SetText(99999, first)
	c.SetText(99999, []sqlast.Statement{&sqlast.SelectStmt{}, &sqlast.SelectStmt{}})
	got, _ := c.Text(99999)
	if len(got) != 1 {
		t.Fatal("SetText overwrote an existing entry")
	}
}

func TestDepString(t *testing.T) {
	cat := testCatalog(t, "b", "a")
	tb, _ := cat.Get("b")
	tb.Version.Store(7)
	deps := []Dep{snapDep(t, cat, "b"), snapDep(t, cat, "a"), {Name: "absent"}}
	if got, want := DepString(deps), "a=0, b=7"; got != want {
		t.Fatalf("DepString = %q, want %q", got, want)
	}
}

func TestConfigKeysAreDistinct(t *testing.T) {
	c := New(1 << 20)
	a := c.Entry(Key{Stmt: 5, Cfg: 1})
	b := c.Entry(Key{Stmt: 5, Cfg: 2})
	if a == b {
		t.Fatal("entries with different config fingerprints must be distinct")
	}
}

func TestSetBudgetShrinks(t *testing.T) {
	cat := testCatalog(t, "f")
	c := New(1 << 30)
	bigRow := types.Row{types.NewString(string(make([]byte, 8192)))}
	for i := 0; i < 32; i++ {
		e := c.Entry(Key{Stmt: uint64(i)})
		c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)
		c.SetResult(e, nil, []types.Row{bigRow})
	}
	before := c.Len()
	c.SetBudget(numShards * 2048)
	// Shrink happens on next insertion into each shard.
	for i := 32; i < 64; i++ {
		e := c.Entry(Key{Stmt: uint64(i)})
		c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)
	}
	if c.Len() >= before+32 {
		t.Fatalf("no shrink after SetBudget: before=%d after=%d", before, c.Len())
	}
	if c.Counters().Evictions == 0 {
		t.Fatal("expected evictions after budget shrink")
	}
}

// Guard against accidental shard-count changes breaking the tests above.
func TestShardSpread(t *testing.T) {
	c := New(0)
	seen := map[*shard]bool{}
	for i := 0; i < 256; i++ {
		seen[c.shardOf(Key{Stmt: uint64(i)})] = true
	}
	if len(seen) != numShards {
		t.Fatalf("keys spread over %d shards, want %d", len(seen), numShards)
	}
	_ = fmt.Sprintf // keep fmt import if assertions change
}

// TestReplyAttach: a hit's encoded reply is attached once, to the result it
// was encoded from, charged to the budget, and dropped with that result.
func TestReplyAttach(t *testing.T) {
	cat := testCatalog(t, "f")
	rowsA := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}
	rowsB := []types.Row{{types.NewInt(3)}}
	calls := 0
	encode := func(rows []types.Row) []byte {
		calls++
		return []byte(fmt.Sprint(rows))
	}
	stored := func(c *Cache, stmt uint64, rows []types.Row) *Entry {
		e := c.Entry(Key{Stmt: stmt})
		c.SetPlan(e, &sqlast.SelectStmt{}, planFor(cat, "f"), []Dep{snapDep(t, cat, "f")}, nil)
		c.SetResult(e, nil, rows)
		return e
	}
	hit := func(c *Cache, e *Entry) *Hit {
		t.Helper()
		h, ok := c.Hit(e, cat)
		if !ok {
			t.Fatal("want a result hit")
		}
		return h
	}

	c := New(1 << 20)
	e := stored(c, 1, rowsA)
	for i := 0; i < 3; i++ {
		if got := string(hit(c, e).Reply(encode)); got != fmt.Sprint(rowsA) {
			t.Fatalf("hit %d replied %q", i, got)
		}
	}
	if calls != 1 || c.Counters().ReplyHits != 2 || c.Counters().ResultHits != 3 {
		t.Fatalf("3 hits: %d encodes, counters %+v; want 1 encode and 2 reply hits", calls, c.Counters())
	}

	// A replacement between lookup and attach: the late reply answers its own
	// call with its own rows and is not kept for the new result.
	e = stored(c, 2, rowsA)
	h := hit(c, e)
	c.SetResult(e, nil, rowsB)
	if got := string(h.Reply(encode)); got != fmt.Sprint(rowsA) {
		t.Fatalf("late reply %q, want the rows it was read with", got)
	}
	if e.reply != nil {
		t.Fatal("an attach that lost the race with SetResult landed")
	}
	if got := string(hit(c, e).Reply(encode)); got != fmt.Sprint(rowsB) || e.reply == nil {
		t.Fatalf("new result replied %q (stored %v)", got, e.reply != nil)
	}
	c.SetResult(e, nil, rowsA)
	if e.reply != nil {
		t.Fatal("SetResult kept the old result's reply")
	}

	// Invalidation drops the reply with the result.
	if hit(c, e).Reply(encode); e.reply == nil {
		t.Fatal("reply not attached")
	}
	tb, _ := cat.Get("f")
	tb.Version.Add(1)
	if _, ok := c.Hit(e, cat); ok || e.reply != nil || e.bytes != entryBaseBytes {
		t.Fatalf("after a version bump: hit %v, reply kept %v, bytes %d", ok, e.reply != nil, e.bytes)
	}

	// The payload is charged: two entries of one shard fit its budget slice
	// until one of them stores a reply larger than the slack.
	c = New(1 << 30)
	a, b := stored(c, 8, rowsA), stored(c, 16, rowsA) // 8 and 16 share a shard
	sh := c.shardOf(a.key)
	if sh != c.shardOf(b.key) {
		t.Fatal("keys 8 and 16 must share a shard")
	}
	c.SetBudget(numShards * (sh.bytes + 4096))
	aBefore := a.bytes
	payload := make([]byte, 8192)
	hit(c, a).Reply(func([]types.Row) []byte { return payload })
	if a.bytes != aBefore+int64(cap(payload)) {
		t.Fatalf("entry charged %d bytes for a %d-byte reply", a.bytes-aBefore, cap(payload))
	}
	if !b.dead || c.Counters().Evictions != 1 || sh.bytes != a.bytes {
		t.Fatalf("an 8 KiB reply over 4 KiB of slack: neighbour dead %v, evictions %d, shard %d bytes vs entry %d",
			b.dead, c.Counters().Evictions, sh.bytes, a.bytes)
	}
	if _, ok := c.Hit(b, cat); ok {
		t.Fatal("the evicted entry still serves its result")
	}
}
