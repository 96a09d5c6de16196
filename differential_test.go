// The differential harness holds the byte-identity contract in one place:
// one corpus of cases (a named fixture and a script of statements, DML
// included), one list of named configurations, each naming the reference it
// must equal, one comparison (rowBits) and one runner. Each case runs under
// each configuration it lists on a fresh database; the transcript — each
// statement's rows or error text, then a dump of every table and view —
// must equal the reference's under the contract the benchmark's oracle
// (bench/oracle.go, hashValue) enforces: kind tags and exact bits, in row
// order.
package sqlsheet_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sqlsheet"
	"sqlsheet/internal/client"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/server"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wire"
)

// outcome is one transcript line: an error's text, or the column names and
// each row encoded by appendBits.
type outcome struct {
	err, cols string
	rows      []string
}

// appendBits encodes a value as a kind tag and its exact bits: a FLOAT by
// math.Float64bits, an INT or BOOL by value, a STRING by its bytes (quoted,
// so no value forges a separator), a NULL by its tag alone.
func appendBits(b []byte, v types.Value) []byte {
	switch v.K {
	case types.KindFloat:
		return strconv.AppendUint(append(b, 'F'), math.Float64bits(v.F), 16)
	case types.KindInt:
		return strconv.AppendInt(append(b, 'I'), v.I, 10)
	case types.KindBool:
		return strconv.AppendInt(append(b, 'B'), v.I, 10)
	case types.KindString:
		return strconv.AppendQuote(append(b, 'S'), v.S)
	}
	return append(b, 'N')
}

func outcomeOf[R ~[]types.Value](cols []string, rows []R) outcome {
	o := outcome{cols: fmt.Sprintf("%q", cols), rows: make([]string, len(rows))}
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			b = appendBits(append(b, ' '), v)
		}
		o.rows[i] = string(b)
	}
	return o
}

// text is the outcome as compared; sorted takes the rows as a multiset.
func (o outcome) text(sorted bool) string {
	if o.err != "" {
		return "error: " + o.err
	}
	rows := o.rows
	if sorted {
		rows = slices.Clone(rows)
		sort.Strings(rows)
	}
	return o.cols + "\n" + strings.Join(rows, "\n")
}

func resultOutcome(res *sqlsheet.Result, err error) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	} else if res == nil {
		return outcomeOf[sqlsheet.Row](nil, nil)
	}
	return outcomeOf(res.Columns, res.Rows)
}

// rowBits is the one comparison of results: two results (or errors) are the
// same when their rowBits are equal.
func rowBits(res *sqlsheet.Result, err error) string { return resultOutcome(res, err).text(false) }

// wireOutcome is resultOutcome for a reply read over the wire, where an
// engine error travels as EXEC_ERROR with the engine's text.
func wireOutcome(res *wire.Result, err error) outcome {
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeExecError {
		return outcome{err: we.Msg}
	} else if err != nil {
		return outcome{err: err.Error()}
	} else if res == nil {
		return outcomeOf[[]types.Value](nil, nil)
	}
	return outcomeOf(res.Cols, res.Rows)
}

// firstDiff shows the first line where two outcome texts part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	at := func(l []string) string { return strings.Join(l[min(i, len(l)):min(i+1, len(l))], "") }
	return fmt.Sprintf("line %d of %d/%d\nwant: %s\ngot:  %s", i, len(w), len(g), at(w), at(g))
}

// TestRowBits pins what the comparison tells apart, each pair with the
// comparers of the grids before the harness that merged it, and that it
// equates identical NaNs.
func TestRowBits(t *testing.T) {
	x := []string{"x"}
	one := func(v ...types.Value) outcome { return outcomeOf(x, [][]types.Value{v}) }
	for _, p := range []struct {
		name, mergedBy string
		a, b           outcome
	}{
		{"2 vs 2.0", "exactRows, rowsKey, render", one(types.NewInt(2)), one(types.NewFloat(2))},
		{"-0.0 vs 0.0", "exactRows", one(types.NewFloat(math.Copysign(0, -1))), one(types.NewFloat(0))},
		{"NULL vs 'NULL'", "rowsKey, render", one(types.Null), one(types.NewString("NULL"))},
		{"'2' vs 2", "rowsKey, render", one(types.NewString("2")), one(types.NewInt(2))},
		{"rows swapped", "rowsKey", outcomeOf(x, [][]types.Value{{types.NewInt(1)}, {types.NewInt(2)}}),
			outcomeOf(x, [][]types.Value{{types.NewInt(2)}, {types.NewInt(1)}})},
		{"error vs empty result", "none", outcome{err: "x"}, outcomeOf[[]types.Value](x, nil)},
	} {
		if p.a.text(false) == p.b.text(false) {
			t.Errorf("%s (merged by %s): not told apart", p.name, p.mergedBy)
		}
	}
	if one(types.NewFloat(math.NaN())).text(false) != one(types.NewFloat(math.NaN())).text(false) {
		t.Error("two identical NaNs compare unequal")
	}
}

type mode int

const (
	embedded  mode = iota
	busy           // every SELECT's cache entry held, as by a concurrent execution
	served         // WAL-backed, statements through internal/client to an in-process sqlsheetd
	recovered      // served's database reopened from its log, then from a checkpoint
)

// diffConfig is one named configuration. ref names the configuration it
// must equal ("" for a reference; references chain to one), which shares
// its bucket count and its MorselSize: the two settings that legally change
// row order and float merge bits.
type diffConfig struct {
	name, group, ref string
	cfg              sqlsheet.Config
	mode             mode
	runs             int  // every SELECT runs this often, each run compared
	unordered        bool // plan shape: rows as a multiset unless an ORDER BY ends the statement
}

// grid is a configuration with the cache off and 16-row morsels (so small fixtures still split).
func grid(workers, parallel, buckets int, edits ...func(*sqlsheet.Config)) sqlsheet.Config {
	c := sqlsheet.Config{Workers: workers, Parallel: parallel}
	c.Ablate.DisablePlanCache, c.Ablate.Exec.MorselSize, c.Ablate.Engine.Buckets = true, 16, buckets
	for _, edit := range edits {
		edit(&c)
	}
	return c
}

func rowPath(c *sqlsheet.Config)   { c.Ablate.Engine.DisableVectorizedExec = true }
func rulesOff(c *sqlsheet.Config)  { c.Ablate.Engine.DisableVectorizedRules = true }
func lowCutoff(c *sqlsheet.Config) { c.Ablate.Engine.VecMinRows = 1 }
func cacheOn(c *sqlsheet.Config)   { c.Ablate.DisablePlanCache = false }
func reuse(c *sqlsheet.Config)     { c.Ablate.DisablePlanCache, c.Ablate.DisableResultCache = false, true }
func syncSpill(c *sqlsheet.Config) { c.Ablate.Exec.DisableAsyncSpill = true }
func promote(c *sqlsheet.Config)   { c.PromoteIndependentDims = true }
func budget(n int64) func(*sqlsheet.Config) {
	return func(c *sqlsheet.Config) { c.MemoryBudget = n }
}

// diffConfigs is the configuration list; a case names configurations or groups.
func diffConfigs() []diffConfig {
	// PEs write their buckets in place while sharing cached pristine rows.
	b3 := func(workers int, edits ...func(*sqlsheet.Config)) sqlsheet.Config {
		return grid(workers, workers, 3, append([]func(*sqlsheet.Config){reuse, lowCutoff}, edits...)...)
	}
	return []diffConfig{
		// References: serial, every batch layer off, cache off.
		{name: "row", cfg: grid(1, 0, 0, rowPath)},
		{name: "row-b3", cfg: grid(1, 1, 3, rowPath)},
		{name: "row-b7", cfg: grid(1, 1, 7, rowPath)},
		{name: "row-b16", cfg: grid(1, 1, 16, rowPath)},
		{name: "row-p2", cfg: grid(1, 2, 0, rowPath, func(c *sqlsheet.Config) { c.Ablate.Exec.MorselSize = 0 })},

		// exec: row path vs vectorized at 1 and 8 workers, rules off, cutoff 1.
		{name: "row-w8", group: "exec", ref: "row", cfg: grid(8, 0, 0, rowPath)},
		{name: "vec-w1", group: "exec", ref: "row", cfg: grid(1, 0, 0)},
		{name: "vec-w8", group: "exec", ref: "row", cfg: grid(8, 0, 0)},
		{name: "rules-off-w1", group: "exec", ref: "row", cfg: grid(1, 0, 0, rulesOff)},
		{name: "rules-off-w8", group: "exec", ref: "row", cfg: grid(8, 0, 0, rulesOff)},
		{name: "vec-min1", group: "exec", ref: "row", cfg: grid(1, 0, 0, lowCutoff)},

		// plan: optimizer transforms off or swapped, range probes off.
		{name: "plan-off", group: "plan", ref: "row", unordered: true, cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Plan = plan.Ablation{DisableSheetPrune: true, DisableSheetPush: true, DisableFilterPushdown: true}
		})},
		{name: "probe-off", group: "plan", ref: "row", cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Engine.DisableRangeProbe = true
		})},
		{name: "push-subquery", group: "plan", ref: "row", unordered: true, cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Plan.Push, c.Ablate.Plan.ForceJoin = plan.PushRefSubquery, plan.JoinNestedLoop
		})},
		{name: "push-unfold", group: "plan", ref: "row", unordered: true, cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Plan.Push, c.PromoteIndependentDims = plan.PushUnfold, true
		})},
		{name: "push-none", group: "plan", ref: "row", unordered: true, cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Plan.Push, c.Ablate.Plan.ForceJoin = plan.PushNone, plan.JoinHash
		})},

		// cache: off, full, plan-only, busy, and a budget small enough to
		// evict, every SELECT run twice; the plans of the four that share
		// cache-off's must equal its plans too, once stripped of cache notes.
		{name: "cache-off", group: "cache", ref: "row", cfg: grid(0, 0, 0)},
		{name: "cache-full", group: "cache", ref: "cache-off", runs: 2, cfg: grid(0, 0, 0, cacheOn)},
		{name: "cache-plan-only", group: "cache", ref: "cache-off", runs: 2, cfg: grid(0, 0, 0, reuse)},
		{name: "cache-busy", group: "cache", ref: "cache-off", runs: 2, mode: busy, cfg: grid(0, 0, 0, cacheOn)},
		{name: "cache-small", group: "cache", ref: "cache-off", runs: 2, cfg: grid(0, 0, 0, cacheOn,
			func(c *sqlsheet.Config) { c.PlanCacheBudget = 16 << 10 })},

		// b1, b3, b16: one PE and four over 1, 3 and 16 buckets, rules on and off.
		{name: "b1-w4", group: "b1", ref: "row", cfg: grid(4, 4, 1)},
		{name: "b1-w4-rules-off", group: "b1", ref: "row", cfg: grid(4, 4, 1, rulesOff)},
		{name: "b3-w1", group: "b3", ref: "row-b3", cfg: b3(1)},
		{name: "b3-w4", group: "b3", ref: "row-b3", cfg: b3(4)},
		{name: "b3-w4-rules-off", group: "b3", ref: "row-b3", cfg: b3(4, rulesOff)},
		{name: "b16-w1", group: "b16", ref: "row-b16", cfg: grid(1, 1, 16)},
		{name: "b16-w4", group: "b16", ref: "row-b16", cfg: grid(4, 4, 16)},
		{name: "b16-w4-rules-off", group: "b16", ref: "row-b16", cfg: grid(4, 4, 16, rulesOff)},

		// spill3: a 600-byte budget over three buckets.
		{name: "b3-spill-w1", group: "spill3", ref: "row-b3", cfg: b3(1, budget(600))},
		{name: "b3-spill-w4", group: "spill3", ref: "row-b3", cfg: b3(4, budget(600))},
		{name: "b3-spill-w1-rules-off", group: "spill3", ref: "row-b3", cfg: b3(1, budget(600), rulesOff)},
		{name: "b3-spill-w4-rules-off", group: "spill3", ref: "row-b3", cfg: b3(4, budget(600), rulesOff)},

		// move: parallel build and chunked sort over seven buckets, in memory
		// and under a 1500-byte budget with async and sync spill.
		{name: "b7-par3", group: "move", ref: "row-b7", cfg: grid(8, 3, 7)},
		{name: "b7-spill-async", group: "move", ref: "row-b7", cfg: grid(8, 3, 7, budget(1500))},
		{name: "b7-spill-sync", group: "move", ref: "row-b7", cfg: grid(8, 3, 7, budget(1500), syncSpill)},
		{name: "b7-spill-serial", group: "move", ref: "row-b7", cfg: grid(1, 1, 7, budget(1500), syncSpill)},

		// promote: S4's duplication of an independent dimension into the
		// distribution key (two PEs); the sheet drops the leading copy.
		{name: "row-promote", cfg: grid(1, 2, 0, rowPath, promote)},
		{name: "vec-promote", group: "promote", ref: "row-promote", cfg: grid(4, 2, 0, promote)},

		// served: the path the benchmark checks; recovered reopens its log.
		{name: "served", group: "served", ref: "row-p2", mode: served, cfg: sqlsheet.Config{Parallel: 2}},
		{name: "recovered", group: "served", ref: "row-p2", mode: recovered, cfg: sqlsheet.Config{Parallel: 2}},

		// FuzzQuery's other side: PEs, workers, the cutoff and the cache at once.
		{name: "par2-mixed", group: "fuzz", ref: "row-p2", cfg: sqlsheet.Config{Parallel: 2, Workers: 4,
			Ablate: sqlsheet.Ablation{Engine: core.Ablation{VecMinRows: 1}}}},
	}
}

func diffConfigNamed(name string) diffConfig {
	all := diffConfigs()
	return all[slices.IndexFunc(all, func(k diffConfig) bool { return k.name == name })]
}

// diffCase is one corpus entry: a fixture, a script, and the configurations
// (names or groups, space-separated) it runs under.
type diffCase struct {
	name    string
	fixture fixture
	script  []string
	configs string
	runs    int                               // every SELECT runs at least this often
	long    bool                              // skipped under -short
	check   func(t *testing.T, ref []outcome) // more than equality, on the reference's lines
}

// transcript is a run's outcome per statement, then its dumps of every
// table and view: one, or one per reopening when recovered. A cache
// configuration also keeps each SELECT's EXPLAIN and EXPLAIN ANALYZE plan.
type transcript struct {
	stmts, dumps []outcome
	plans        []string
}

// applicable lists the configurations c runs under, references included.
func (c diffCase) applicable(all []diffConfig) []diffConfig {
	want := map[string]bool{}
	for _, tok := range strings.Fields(c.configs) {
		for _, k := range all {
			if k.name == tok || k.group == tok {
				want[k.name], want[k.ref] = true, true
			}
		}
	}
	return slices.DeleteFunc(slices.Clone(all), func(k diffConfig) bool { return !want[k.name] })
}

func isSelect(stmt string) bool {
	s := strings.ToUpper(strings.TrimSpace(stmt))
	return strings.HasPrefix(s, "SELECT") || strings.HasPrefix(s, "WITH")
}

// ordersTotally reports whether an ORDER BY ends the statement; the corpus
// keeps to the convention that such an ORDER BY is total.
func ordersTotally(stmt string) bool {
	s := strings.ToUpper(stmt)
	return strings.LastIndex(s, "ORDER BY") > strings.LastIndex(s, ")")
}

// readPaths are the entry points a SELECT may take. The runner rotates
// through them by statement, configuration and run, so two configurations
// compare different entry points.
var readPaths = []func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error){
	(*sqlsheet.DB).Query,
	func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
		return db.QueryContext(context.Background(), q)
	},
	func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
		res, _, err := db.QueryStats(q)
		return res, err
	},
	func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) {
		res, _, err := db.QueryOpStats(q)
		return res, err
	},
	(*sqlsheet.DB).Exec,
	func(db *sqlsheet.DB, q string) (*sqlsheet.Result, error) { // after a no-op DELETE
		return db.Exec(`DELETE FROM ` + db.Tables()[0] + ` WHERE 1 = 0; ` + q)
	},
}

// dump reads every table and view, in name order, through query into one
// outcome, each row prefixed by its table's name.
func dump[R any](db *sqlsheet.DB, query func(string) (R, error), of func(R, error) outcome) (d outcome) {
	names := append(db.Tables(), db.Views()...)
	sort.Strings(names)
	for _, name := range names {
		o := of(query(`SELECT * FROM ` + name))
		d.cols += name + o.cols + o.err + "\n"
		for _, r := range o.rows {
			d.rows = append(d.rows, name+r)
		}
	}
	return d
}

// open builds a fresh database under cfg holding the case's fixture.
func open(t *testing.T, c diffCase, cfg sqlsheet.Config, walDir string) *sqlsheet.DB {
	db := sqlsheet.Open()
	if walDir != "" {
		if err := db.EnableWAL(walDir, sqlsheet.SyncGroup); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.MemoryBudget > 0 {
		cfg.SpillDir = t.TempDir()
	}
	db.Configure(cfg)
	c.fixture(t, db)
	return db
}

// runEmbedded executes the script in process; ki rotates the entry points.
func runEmbedded(t *testing.T, c diffCase, k diffConfig, ki int) (tr transcript) {
	db := open(t, c, k.cfg, "")
	held := map[string]bool{}
	for _, s := range c.script {
		if k.mode == busy && isSelect(s) && !held[s] {
			db.HoldEntry(t, s)
			held[s] = true
		}
	}
	for i, s := range c.script {
		if !isSelect(s) {
			tr.stmts = append(tr.stmts, resultOutcome(db.Exec(s)))
			continue
		}
		for run := 0; run < max(k.runs, c.runs, 1); run++ {
			o := resultOutcome(readPaths[(i+ki+run)%len(readPaths)](db, s))
			if run == 0 {
				tr.stmts = append(tr.stmts, o)
			} else if first, got := tr.stmts[i].text(false), o.text(false); got != first {
				t.Errorf("statement %d, run %d differs from run 0: %s\n%s", i, run, firstDiff(first, got), s)
			}
		}
		if k.group == "cache" {
			explained, err := db.Explain(s)
			analyzed, err2 := db.ExplainAnalyze(s)
			analyzed, _, _ = strings.Cut(analyzed, "\nexecution:\n")
			tr.plans = append(tr.plans, fmt.Sprint(stripCacheNotes(explained), err, stripCacheNotes(analyzed), err2))
		}
	}
	if cc := db.CacheCounters(); k.mode == busy && cc.PlanHits+cc.PlanMisses != 0 {
		t.Errorf("a busy entry was claimed: %+v", cc)
	}
	tr.dumps = []outcome{dump(db, db.Query, resultOutcome)}
	checkStored(t, db)
	return tr
}

// checkStored holds db's tables to the storage contract: every published
// image has a columnar form whose columns have their schema's kinds.
func checkStored(t *testing.T, db *sqlsheet.DB) {
	t.Helper()
	if err := db.StoredKindsError(); err != nil {
		t.Error(err)
	}
}

// runServed executes the script over the wire, the database logging to walDir.
func runServed(t *testing.T, c diffCase, k diffConfig, walDir string) (tr transcript) {
	db := open(t, c, k.cfg, walDir)
	defer func() { // before recovered reopens the log
		if err := db.Close(); err != nil {
			t.Error(err)
		}
	}()
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	cl, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, s := range c.script {
		tr.stmts = append(tr.stmts, wireOutcome(cl.Query(s)))
	}
	tr.dumps = []outcome{dump(db, cl.Query, wireOutcome)}
	checkStored(t, db)
	return tr
}

// runRecovered reopens walDir's log and dumps, then checkpoints and does again.
func runRecovered(t *testing.T, k diffConfig, walDir string) (tr transcript) {
	for _, checkpoint := range []bool{true, false} {
		db := sqlsheet.Open()
		if err := db.EnableWAL(walDir, sqlsheet.SyncGroup); err != nil {
			t.Fatal(err)
		}
		db.Configure(k.cfg)
		tr.dumps = append(tr.dumps, dump(db, db.Query, resultOutcome))
		checkStored(t, db)
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// stripCacheNotes drops the "cache: …" lines of an EXPLAIN text.
func stripCacheNotes(text string) string {
	lines := strings.SplitAfter(text, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(l string) bool { return strings.HasPrefix(l, "cache:") }), "")
}

// compare fails t where got departs from want: statement by statement, plan
// by plan, then each of got's dumps against want's.
func compare(t *testing.T, c diffCase, k diffConfig, want, got transcript) {
	for i := range want.plans {
		if want.plans[i] != got.plans[i] {
			t.Errorf("plan %d differs from %s: %s", i, k.ref, firstDiff(want.plans[i], got.plans[i]))
		}
	}
	for i, o := range got.stmts {
		sorted := k.unordered && !ordersTotally(c.script[i])
		if w, g := want.stmts[i].text(sorted), o.text(sorted); w != g {
			t.Errorf("statement %d differs from %s: %s\n%s", i, k.ref, firstDiff(w, g), c.script[i])
		}
	}
	for di, d := range got.dumps {
		if w, g := want.dumps[0].text(k.unordered), d.text(k.unordered); w != g {
			t.Errorf("dump %d differs from %s: %s", di, k.ref, firstDiff(w, g))
		}
	}
}

// TestDifferential runs every case under each configuration it lists and
// holds the transcript to the reference's. A reference runs once per case,
// as a subtest or on demand, so -run may pick configurations:
// 'TestDifferential//^(vec-w8|b3-w4)$'.
func TestDifferential(t *testing.T) {
	all := diffConfigs()
	for _, c := range diffCorpus() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if c.long && testing.Short() {
				t.Skip("large table")
			}
			memo := map[string]transcript{}
			walDir := t.TempDir() // outlives the served subtest, for recovered
			var run func(t *testing.T, k diffConfig) transcript
			run = func(t *testing.T, k diffConfig) transcript {
				if tr, ok := memo[k.name]; ok {
					return tr
				}
				switch k.mode {
				case served:
					memo[k.name] = runServed(t, c, k, walDir)
				case recovered:
					run(t, diffConfigNamed("served"))
					memo[k.name] = runRecovered(t, k, walDir)
				default:
					memo[k.name] = runEmbedded(t, c, k, slices.IndexFunc(all, func(o diffConfig) bool { return o.name == k.name }))
				}
				return memo[k.name]
			}
			for _, k := range c.applicable(all) {
				t.Run(k.name, func(t *testing.T) {
					// PEs and workers share one core budget: a run stuck past
					// 30 s is a deadlock, and fails instead of hanging.
					defer time.AfterFunc(30*time.Second, func() { panic(c.name + "/" + k.name + " ran 30 s") }).Stop()
					if got := run(t, k); k.ref != "" {
						compare(t, c, k, run(t, diffConfigNamed(k.ref)), got)
					} else if c.check != nil {
						c.check(t, got.stmts)
					}
				})
			}
		})
	}
}

// parentCells counts the cells the twenty grid tests the harness replaced ran.
const parentCells = 2486

// configLeaves collects the dotted path of every leaf of a Config; with
// setOnly, of every leaf holding a non-zero value.
func configLeaves(v reflect.Value, prefix string, setOnly bool, out map[string]bool) {
	for i := 0; i < v.NumField(); i++ {
		if f, name := v.Field(i), prefix+v.Type().Field(i).Name; f.Kind() == reflect.Struct {
			configLeaves(f, name+".", setOnly, out)
		} else if !setOnly || !f.IsZero() {
			out[name] = true
		}
	}
}

// TestDifferentialConfigs holds the list to its rules: some named
// configuration sets every Config leaf, so no toggle lands without
// byte-identity coverage; each reference exists and partitions like its
// dependents; and the corpus runs at least the replaced grids' cells.
func TestDifferentialConfigs(t *testing.T) {
	exempt := map[string]string{
		"SpillDir":        "a deployment path; open sets one for every budgeted configuration",
		"EnableMVRewrite": "may serve rows stale since the last REFRESH, by design",
	}
	all := diffConfigs()
	leaves, set := map[string]bool{}, map[string]bool{}
	configLeaves(reflect.ValueOf(sqlsheet.Config{}), "", false, leaves)
	for _, k := range all {
		configLeaves(reflect.ValueOf(k.cfg), "", true, set)
	}
	for leaf := range leaves {
		if !set[leaf] && exempt[leaf] == "" {
			t.Errorf("no named configuration sets %s: add one, or an exemption with its reason", leaf)
		}
	}
	buckets := func(c sqlsheet.Config) int { // an explicit count, or the requested PEs
		return cmp.Or(c.Ablate.Engine.Buckets, max(c.Parallel, 1))
	}
	for _, k := range all {
		if k.cfg.MemoryBudget > 0 && k.cfg.Ablate.Engine.Buckets == 0 {
			t.Errorf("%s: a budget changes the derived bucket count; set Buckets", k.name)
		}
		if i := slices.IndexFunc(all, func(r diffConfig) bool { return r.name == k.ref }); k.ref == "" {
			continue
		} else if i < 0 {
			t.Errorf("%s: no configuration %q", k.name, k.ref)
		} else if r := all[i].cfg; buckets(r) != buckets(k.cfg) || r.Ablate.Exec.MorselSize != k.cfg.Ablate.Exec.MorselSize {
			t.Errorf("%s: reference %s partitions differently", k.name, k.ref)
		}
	}
	cells := 0
	for _, c := range diffCorpus() {
		for _, k := range c.applicable(all) {
			for _, s := range c.script {
				if cells++; isSelect(s) {
					cells += max(k.runs, c.runs, 1) - 1
				}
			}
		}
	}
	t.Logf("%d cells (the replaced grids ran %d)", cells, parentCells)
	if cells < parentCells {
		t.Errorf("the corpus runs %d cells, fewer than the replaced grids' %d", cells, parentCells)
	}
}

type fixture = func(t testing.TB, db *sqlsheet.DB)

// fixtureDB opens a database holding f.
func fixtureDB(t testing.TB, f fixture) *sqlsheet.DB {
	db := sqlsheet.Open()
	f(t, db)
	return db
}

func insert(t testing.TB, db *sqlsheet.DB, table string, rows ...[]any) {
	if err := db.Insert(table, rows...); err != nil {
		t.Fatal(err)
	}
}

// rowsOf lists n rows, row i from f.
func rowsOf(n int, f func(i int) []any) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = f(i)
	}
	return rows
}

// randomFactDB fills f(r, p, t, s) sparsely from seed.
func randomFactDB(seed int64) fixture {
	return func(t testing.TB, db *sqlsheet.DB) {
		rng := rand.New(rand.NewSource(seed))
		db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
		var rows [][]any
		for _, r := range []string{"west", "east", "north"} {
			for _, p := range []string{"dvd", "vcr", "tv", "video"} {
				for year := 1995; year <= 2002; year++ {
					if rng.Intn(3) != 0 { // else sparse
						rows = append(rows, []any{r, p, year, float64(rng.Intn(100))})
					}
				}
			}
		}
		insert(t, db, "f", rows...)
	}
}

// randomT1T2 fills a fact t1 (cols; n1 to n1+spread rows, each from row)
// and a dimension t2(k, d, w) of n2 rows, with overlapping keys, from seed.
func randomT1T2(cols string, n1, spread, n2 int, row func(*rand.Rand) []any) func(seed int64) fixture {
	return func(seed int64) fixture {
		return func(t testing.TB, db *sqlsheet.DB) {
			rng := rand.New(rand.NewSource(seed))
			db.MustExec(`CREATE TABLE t1 ` + cols)
			db.MustExec(`CREATE TABLE t2 (k INT, d TEXT, w FLOAT)`)
			insert(t, db, "t1", rowsOf(n1+rng.Intn(spread), func(int) []any { return row(rng) })...)
			insert(t, db, "t2", rowsOf(n2, func(i int) []any { // some t1.a values match no k, some k no a
				return []any{rng.Intn(80), fmt.Sprintf("d%02d", i), rng.Float64() * 10}
			})...)
		}
	}
}

// maybe returns v(), or NULL when draw is 0.
func maybe(draw int, v func() any) any {
	if draw == 0 {
		return nil
	}
	return v()
}

// parallelPropDB crosses a 16-row morsel many times, with NULLs.
var parallelPropDB = randomT1T2(`(a INT, b FLOAT, c TEXT)`, 200, 200, 48, func(rng *rand.Rand) []any {
	b := maybe(rng.Intn(10), func() any { return rng.NormFloat64() * 100 })
	return []any{rng.Intn(64), b, fmt.Sprintf("c%02d", rng.Intn(24))}
})

// typedDB holds every typed representation, with NULLs.
var typedDB = randomT1T2(`(a INT, a2 INT, b FLOAT, c TEXT, ok BOOL)`, 300, 100, 40, func(rng *rand.Rand) []any {
	b := maybe(rng.Intn(8), func() any { return rng.NormFloat64() * 30 })
	c := maybe(rng.Intn(16), func() any { return fmt.Sprintf("c%02d", rng.Intn(24)) })
	return []any{rng.Intn(64), rng.Intn(64), b, c, rng.Intn(2) == 0}
})

// numDB: NaN, infinities, -0.0, 1e300 and the int64 edges.
func numDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE num (i INT, f FLOAT)`)
	insert(t, db, "num", []any{int64(math.MaxInt64), math.NaN()}, []any{int64(math.MinInt64), math.Inf(1)},
		[]any{int64(0), math.Inf(-1)}, []any{int64(7), 7.0}, []any{int64(-3), -2.5}, []any{nil, 0.0},
		[]any{int64(42), nil}, []any{int64(8), 1e300}, []any{int64(9), math.Copysign(0, -1)})
}

// windowDB: partition and order keys with NULL, NaN of two payloads, ±Inf,
// -0.0 and heavy ties (t), a measure with a NaN, and a unique id.
func windowDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE wt (id INT, g TEXT, h INT, f FLOAT, t INT, s FLOAT)`)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	fs := []any{1.5, math.NaN(), nil, math.Inf(1), math.Copysign(0, -1), 0.0, math.Inf(-1), nan2, -2.25, 1.5, 2.0}
	gs := []any{"a", "b", nil, "c", "b", "a"}
	insert(t, db, "wt", rowsOf(130, func(i int) []any {
		s := any(float64(i%11) * 1.25)
		if i%37 == 5 {
			s = math.NaN()
		}
		return []any{i, gs[i%len(gs)], maybe(i%3, func() any { return i % 4 }), fs[i%len(fs)], (i * 7) % 13, s}
	})...)
}

// addOnlyDB: a sheet whose level-1 rules overwrite ±1e308 cells (k = 'a')
// and cells beside 1e16 (k = 'b'), and window partitions holding a frame of
// 1s between two 1e308s (g = 'a'), NULL, NaN, -0.0, ±Inf and overflow
// (g = 'b'), and one NULL row (g = 'c').
func addOnlyDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE ag (k TEXT, d INT, s FLOAT)`)
	insert(t, db, "ag", []any{"a", 1, 1e308}, []any{"a", 2, 1e308}, []any{"a", 3, -1e308}, []any{"a", 4, -1e308},
		[]any{"b", 1, 0.1}, []any{"b", 2, 0.2}, []any{"b", 3, 1e16}, []any{"b", 4, 0.3})
	db.MustExec(`CREATE TABLE aw (g TEXT, i INT, x FLOAT, n INT)`)
	xs := map[string][]any{
		"a": {1.0, 1e308, 1e308, 1.0, 1.0},
		"b": {nil, math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 2.5, 1e308, 1e308, -1e308, 0.5},
		"c": {nil},
	}
	for _, g := range []string{"a", "b", "c"} {
		insert(t, db, "aw", rowsOf(len(xs[g]), func(i int) []any { return []any{g, i + 1, xs[g][i], i + 1} })...)
	}
}

// addOnlyFrames are the add-only-aggregates case's window frames: the
// prefix, the suffix (a backward pass), bounded frames, frames empty at the
// start, at the end or everywhere, and frames of following rows.
var addOnlyFrames = []string{
	"",
	" ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING",
	" ROWS BETWEEN 1 PRECEDING AND CURRENT ROW",
	" ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
	" ROWS BETWEEN 3 PRECEDING AND 2 PRECEDING",
	" ROWS BETWEEN UNBOUNDED PRECEDING AND 2 PRECEDING",
	" ROWS BETWEEN 1 FOLLOWING AND 3 FOLLOWING",
	" ROWS BETWEEN 2 FOLLOWING AND UNBOUNDED FOLLOWING",
	" ROWS BETWEEN 1 FOLLOWING AND 1 PRECEDING",
}

// addOnlyScript: the two rule models, then one statement per frame taking
// every aggregate over it, a CASE mixing INT and FLOAT among them.
func addOnlyScript() []string {
	script := []string{
		`SELECT k, d, s FROM ag WHERE k = 'a' SPREADSHEET PBY(k) DBY(d) MEA(s)
		 ( s[1] = 100, s[2] = 300, s[3] = 5, s[4] = 9, s[5] = sum(s)[d < 3] + sum(s)[3 <= d <= 4] ) ORDER BY k, d`,
		`SELECT k, d, s FROM ag WHERE k = 'b' SPREADSHEET PBY(k) DBY(d) MEA(s)
		 ( s[1] = 1, s[5] = sum(s)[d < 5] - 1e16 ) ORDER BY k, d`,
	}
	for _, fr := range addOnlyFrames {
		var cols []string
		for _, f := range []string{"SUM(x)", "COUNT(x)", "AVG(x)", "MIN(x)", "MAX(x)", "SLOPE(x, n)", "COUNT(*)",
			"SUM(CASE WHEN i = 1 THEN 0.5 ELSE n END)", "MAX(CASE WHEN i % 2 = 0 THEN 1 ELSE 1.0 END)"} {
			cols = append(cols, f+" OVER (PARTITION BY g ORDER BY i"+fr+")")
		}
		script = append(script, "SELECT g, i, "+strings.Join(cols, ", ")+" FROM aw ORDER BY g, i")
	}
	return script
}

// The window-order script. windowPairs are windows whose ORDER BY (and
// LIMIT) the plan absorbs — mixed directions, P in another order, NaN
// partition keys of two payloads, lag/lead and frames over a DESC order, a
// limit cutting a partition, k = 0 and k past the input — each run as is
// and kept from fusing by a derived table. windowScript holds the
// non-fusable neighbours (a strict prefix, an extra trailing key, a
// direction unlike O's, two partitionings), windows without ORDER BY over
// special values, computed and mixed-kind keys, ORDER BY … LIMIT as a
// top-k (ties at the k-th row, k = 0, k past the input), a NaN sort, and
// LIMITs that are no row count.
var windowPairs = []struct{ body, order string }{
	{windowSum, ` ORDER BY h DESC, g, t DESC, id`},
	{windowNaN, ` ORDER BY f DESC, t, id`},
	{windowFrames, ` ORDER BY g, t DESC, id`},
	{windowSum, ` ORDER BY h DESC, g, t DESC, id LIMIT 30`},
	{windowNaN, ` ORDER BY f DESC, t, id LIMIT 0`},
	{windowNaN, ` ORDER BY f, t, id LIMIT 1000`},
	{windowFrames, ` ORDER BY g, t DESC, id LIMIT 50`},
}

var windowScript = []string{
	`SELECT id, g, t, row_number() OVER (PARTITION BY g ORDER BY t, id) AS rn FROM wt ORDER BY g`,
	`SELECT id, g, t, s, row_number() OVER (PARTITION BY g ORDER BY t, id) AS rn FROM wt ORDER BY g, t, id, s`,
	`SELECT id, g, t, row_number() OVER (PARTITION BY g ORDER BY t, id) AS rn FROM wt ORDER BY g, t DESC, id`,
	`SELECT id, g, h, t, SUM(s) OVER (PARTITION BY g ORDER BY t, id) AS a,
		SUM(s) OVER (PARTITION BY h ORDER BY t, id) AS b FROM wt ORDER BY g, t, id`,
	`SELECT id, f, g, COUNT(*) OVER (PARTITION BY f) AS n,
		row_number() OVER (PARTITION BY f ORDER BY g DESC, id) AS rn FROM wt`,
	`SELECT id, f, rank() OVER (ORDER BY f) AS r, dense_rank() OVER (ORDER BY f DESC) AS d,
		rank() OVER (PARTITION BY g ORDER BY t) AS rt FROM wt`,
	`SELECT id, SUM(s) OVER (PARTITION BY h % 2 ORDER BY s * -1, id) AS k FROM wt`,
	`SELECT id, row_number() OVER (PARTITION BY CASE WHEN h > 1 THEN g ELSE h END ORDER BY id) AS rn FROM wt`,
	`SELECT id, t FROM wt ORDER BY t LIMIT 5`,
	`SELECT id, f FROM wt ORDER BY f DESC, id LIMIT 7`,
	limit0,
	limitPast,
	`SELECT id, CASE WHEN h IS NULL THEN g ELSE h END AS k FROM wt ORDER BY k DESC LIMIT 9`,
	nanSort,
	`SELECT id FROM wt ORDER BY id LIMIT -1`,
	`SELECT id FROM wt ORDER BY id LIMIT 1e300`,
	`SELECT id FROM wt ORDER BY id LIMIT 2.7`,
	`SELECT id FROM wt LIMIT 'x'`,
	limitTwo,
}

// windowOrderScript is the case's script: windowPairs fused, windowScript,
// windowPairs kept apart.
func windowOrderScript() []string {
	var fused, apart []string
	for _, p := range windowPairs {
		fused = append(fused, p.body+p.order)
		apart = append(apart, `SELECT * FROM (`+p.body+`) q`+p.order)
	}
	return append(append(fused, windowScript...), apart...)
}

const (
	limit0    = `SELECT id FROM wt ORDER BY t LIMIT 0`
	limitPast = `SELECT id, g FROM wt ORDER BY g DESC LIMIT 1000`
	limitTwo  = `SELECT id FROM wt ORDER BY id LIMIT 2.0`
	nanSort   = `SELECT f FROM wt WHERE id < 11 ORDER BY f DESC`
	windowSum = `SELECT id, g, h, t, SUM(s) OVER (PARTITION BY g, h ORDER BY t DESC, id) AS cs,
		rank() OVER (PARTITION BY h, g ORDER BY t DESC, id) AS rk FROM wt`
	windowNaN    = `SELECT id, f, t, SUM(s) OVER (PARTITION BY f ORDER BY t, id) AS cs FROM wt`
	windowFrames = `SELECT id, g, t, lag(s) OVER (PARTITION BY g ORDER BY t DESC, id) AS lg,
		lead(s, 2, -1) OVER (PARTITION BY g ORDER BY t DESC, id) AS ld,
		AVG(s) OVER (PARTITION BY g ORDER BY t DESC, id ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS ma,
		MIN(s) OVER (PARTITION BY g ORDER BY t DESC, id ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS mn,
		first_value(s) OVER (PARTITION BY g ORDER BY t DESC, id ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS fv
		FROM wt`
)

// allNullDB: a column entirely NULL, and an empty table.
func allNullDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE nt (a INT, z FLOAT, c TEXT)`)
	insert(t, db, "nt", rowsOf(100, func(i int) []any { return []any{i, nil, fmt.Sprintf("s%d", i%5)} })...)
	db.MustExec(`CREATE TABLE empty (a INT, b TEXT)`)
}

// mixedDB: an untyped table whose first write pins every column to one
// kind: id and y INT, x FLOAT (its INT and FLOAT values read back as FLOAT),
// z STRING, b BOOL.
func mixedDB(t testing.TB, db *sqlsheet.DB) {
	cols := []sqlsheet.Column{{Name: "id"}, {Name: "x"}, {Name: "y"}, {Name: "z"}, {Name: "b"}}
	if err := db.CreateTable("mixed", cols...); err != nil {
		t.Fatal(err)
	}
	xs := []any{1, 2.5, nil, 7, 3.0, 40, -0.5, 12}
	zs := []any{"a", "b", nil, "c"}
	insert(t, db, "mixed", rowsOf(60, func(i int) []any { return []any{i, xs[i%len(xs)], i % 7, zs[i%len(zs)], i%3 == 0} })...)
}

// closureDB: for predicates only closures evaluate (subqueries, arithmetic).
func closureDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE t1 (a INT, b FLOAT, c TEXT)`)
	db.MustExec(`CREATE TABLE t2 (k INT)`)
	rng := rand.New(rand.NewSource(4))
	insert(t, db, "t1", rowsOf(200, func(int) []any {
		return []any{rng.Intn(64), rng.NormFloat64() * 30, fmt.Sprintf("c%02d", rng.Intn(24))}
	})...)
	db.MustExec(`INSERT INTO t2 VALUES (3), (9), (27), (28)`)
}

// dictDB fills big(id, u, extra…) with n distinct u, NULL every 101st row.
func dictDB(schema string, n int, extra ...any) fixture {
	return func(t testing.TB, db *sqlsheet.DB) {
		db.MustExec(`CREATE TABLE big ` + schema)
		insert(t, db, "big", rowsOf(n, func(i int) []any {
			return append([]any{i, maybe(i%101, func() any { return fmt.Sprintf("u%06d", i) })}, extra...)
		})...)
	}
}

// cells lists one row per (r, p, t) of a region × product × year grid.
func cells(regions, products []string, from, to int, row func(r string, pi int, p string, t int) []any) [][]any {
	var rows [][]any
	for _, r := range regions {
		for pi, p := range products {
			for t := from; t < to; t++ {
				rows = append(rows, row(r, pi, p, t))
			}
		}
	}
	return rows
}

var prods4 = []string{"tv", "vcr", "dvd", "amp"}

// straddleDB: round-robin inserts, so every partition straddles every morsel.
func straddleDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	var rows [][]any
	for yr := 1990; yr < 2002; yr++ {
		rows = append(rows, cells([]string{"west", "east", "north"}, prods4[:3], yr, yr+1, func(r string, _ int, p string, t int) []any {
			return []any{r, p, t, float64(t-1990)*1.5 + float64(len(r))}
		})...)
	}
	insert(t, db, "f", rows...)
}

// scanDB: 104-row PBY(r) partitions, past the batch scan's 64-row gate, and
// an all-NULL and a NaN/Inf measure partition.
func scanDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`)
	insert(t, db, "f", cells([]string{"east", "west"}, prods4, 1980, 2006, func(r string, pi int, p string, t int) []any {
		return []any{r, p, t, float64((t-1980)*(pi+1)) * 0.25}
	})...)
	db.MustExec(`CREATE TABLE g (r TEXT, t INT, s FLOAT)`)
	insert(t, db, "g", rowsOf(160, func(i int) []any {
		if i%2 == 0 {
			return []any{"nul", i / 2, nil}
		}
		return []any{"nan", i / 2, []float64{math.NaN(), math.Inf(1), math.Inf(-1), float64(i/2) * 0.5, float64(i/2) * 0.5}[i/2%5]}
	})...)
}

// rulesDB: a 30-year grid with an all-NULL measure z, and an ITERATE table.
func rulesDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE fr (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT, z FLOAT)`)
	insert(t, db, "fr", cells([]string{"east", "west"}, prods4, 1980, 2010, func(r string, pi int, p string, t int) []any {
		return []any{r, p, t, float64(t-1979)*1.5 + float64(pi)*7.25, 0.0, nil}
	})...)
	db.MustExec(`CREATE TABLE it (t INT, s FLOAT)`)
	insert(t, db, "it", rowsOf(80, func(i int) []any { return []any{i, float64(1000 + i)} })...)
}

// cellKeysDB: dimension values the packed cell keys must treat as
// types.AppendKey does — 2.0 beside INT qualifiers and an INT-keyed
// reference sheet, -0.0, NaN, +Inf and NULL — a FLOAT-keyed sheet, a
// dictionary-coded string dimension, and three INT dimensions wide enough
// that their fields overflow a word.
func cellKeysDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE ck (r TEXT, d FLOAT, t INT, s FLOAT)`)
	db.MustExec(`CREATE TABLE ckw (k INT, w FLOAT)`)
	db.MustExec(`CREATE TABLE ckf (kf FLOAT, v FLOAT)`)
	db.MustExec(`CREATE TABLE cs (r TEXT, p TEXT, s FLOAT)`)
	db.MustExec(`CREATE TABLE c3 (r TEXT, x INT, y INT, z INT, s FLOAT)`)
	ds := []any{1.0, 2.0, 2.5, math.Copysign(0, -1), math.NaN(), nil, math.Inf(1)}
	var rows, strs, wide [][]any
	for ri, r := range []string{"a", "b"} {
		for di, d := range ds {
			for t := 1; t <= 4; t++ {
				rows = append(rows, []any{r, d, t, float64(10*di + t + 100*ri)})
			}
		}
		for pi := 1; pi <= 5; pi++ {
			strs = append(strs, []any{r, fmt.Sprintf("p%d", pi), float64(10*ri + pi)})
		}
		for i := 0; i < 8; i++ {
			wide = append(wide, []any{r, i >> 2 * 15000000, i >> 1 & 1 * 15000000, i & 1 * 15000000, float64(i + 1)})
		}
	}
	insert(t, db, "ck", rows...)
	insert(t, db, "cs", strs...)
	insert(t, db, "c3", wide...)
	insert(t, db, "ckw", []any{1, 100.0}, []any{2, 10.0}, []any{3, 1.0})
	insert(t, db, "ckf", []any{1.0, 0.5}, []any{2.0, 1.5}, []any{2.5, 99.0}, []any{4.0, 3.5})
}

// bucketDB: 1,000 partitions of 1–20 rows and three reference sheets.
// Partitions a < b share a bucket at 3 and at 16 buckets; d1 is zero only in
// b, d2 only in a.
func bucketDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE bb (r INT, p TEXT, t INT, s FLOAT, d1 FLOAT, d2 FLOAT, u FLOAT, z FLOAT)`)
	db.MustExec(`CREATE TABLE bpar (p TEXT, par TEXT, w FLOAT)`)
	db.MustExec(`CREATE TABLE bprev (t FLOAT, prev INT)`)
	db.MustExec(`CREATE TABLE bpart (r INT, k FLOAT)`)
	bucketOf := func(r, n int) int { return core.HashValue(types.NewInt(int64(r)), n) }
	a, b := 5, 6
	for bucketOf(b, 3) != bucketOf(a, 3) || bucketOf(b, 16) != bucketOf(a, 16) {
		b++
	}
	var rows, part [][]any
	for r := 0; r < 1000; r++ {
		for i := 0; i < 1+(r*7+3)%20; i++ {
			// Four products per t: p0..p3 in even partitions, p4..p7 in odd.
			var s any = float64(r%13) + float64(i)*0.5 + 0.25
			if (r+i)%17 == 0 {
				s = nil
			}
			d1, d2 := float64(1+i), 2.0
			if r == b {
				d1 = 0
			}
			if r == a {
				d2 = 0
			}
			rows = append(rows, []any{r, fmt.Sprintf("p%d", i%4+4*(r%2)), 1 + i/4, s, d1, d2, 0.0, 0.0})
		}
		if r%11 != 0 { // the rest miss the PBY-keyed sheet
			part = append(part, []any{r, float64(r%5) * 0.5})
		}
	}
	insert(t, db, "bpart", part...)
	insert(t, db, "bb", rows...)
	// p2's parent and weight are NULL, p7 has none; bprev is keyed 1.0 for t 1.
	db.MustExec(`INSERT INTO bpar VALUES ('p0','p1',1.5), ('p1','p2',2), ('p2',NULL,NULL), ('p3','p0',0.5),
		('p4','p5',1), ('p5','p6',3), ('p6','p4',0.25)`)
	db.MustExec(`INSERT INTO bprev VALUES (2.0, 1), (3.0, 2), (4.0, 3), (5.0, 4)`)
}

// inPlaceDB: randomFactDB(7) and g, a copy whose measures statements overwrite.
func inPlaceDB(t testing.TB, db *sqlsheet.DB) {
	randomFactDB(7)(t, db)
	db.MustExec(`CREATE TABLE g (r TEXT, p TEXT, t INT, s FLOAT, v FLOAT, x FLOAT, y FLOAT)`)
	db.MustExec(`INSERT INTO g SELECT r, p, t, s, s, 0.0, 0.0 FROM f ORDER BY r, p, t`)
}

// iterFramesDB: 24 PBY(p) partitions of six cells each. s[1] and s[2] start
// at 0 in every partition and s[2] at 1 in the odd ones; the other cells hold
// p + t.
func iterFramesDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE itf (p INT, t INT, s FLOAT, v FLOAT)`)
	insert(t, db, "itf", rowsOf(24*6, func(i int) []any {
		p, t := i/6, i%6+1
		s := float64(p + t)
		switch {
		case t == 1, t == 2 && p%2 == 0:
			s = 0
		case t == 2:
			s = 1
		}
		return []any{p, t, s, nil}
	})...)
}

// qualBindDB: qb(g, t, s, c) as two PBY(g) partitions of three cells, c
// NULL, and qn(t, s, c) as one partition whose t < s holds at t = 1 and 3.
func qualBindDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE qb (g INT, t INT, s FLOAT, c FLOAT)`)
	insert(t, db, "qb", []any{1, 1, 10.0, nil}, []any{1, 2, 20.0, nil}, []any{1, 3, 30.0, nil},
		[]any{2, 1, 40.0, nil}, []any{2, 2, 50.0, nil}, []any{2, 3, 60.0, nil})
	db.MustExec(`CREATE TABLE qn (t INT, s INT, c INT)`)
	insert(t, db, "qn", []any{1, 5, 0}, []any{2, 1, 0}, []any{3, 9, 0})
}

// nanKeysDB: FLOAT join keys na(k, x) and nb(k, y) with NaN, -0.0 against
// 0.0, +Inf, an integral 2.0 against an INT 2 and NULL on both sides, and
// a second key j.
func nanKeysDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE na (k FLOAT, j INT, x INT)`)
	db.MustExec(`CREATE TABLE nb (k FLOAT, j INT, y INT)`)
	insert(t, db, "na", []any{math.NaN(), 1, 1}, []any{2.5, 1, 2}, []any{math.Copysign(0, -1), 1, 3},
		[]any{math.Inf(1), 1, 4}, []any{nil, 1, 5}, []any{2.0, 1, 6}, []any{2.5, nil, 7})
	insert(t, db, "nb", []any{math.NaN(), 1, 10}, []any{2.5, 1, 20}, []any{0.0, 1, 30},
		[]any{math.Inf(1), 1, 40}, []any{nil, 1, 50}, []any{2.0, 1, 60}, []any{math.NaN(), nil, 70})
}

// groupWordsDB: 400 rows over every key kind the packed group words
// distinguish, NULL in every key column: a dictionary string r, a BOOL b,
// a narrow INT n, an INT wi spanning more than 2^24 values, a FLOAT f whose
// -0.0 comes before its 0.0, with NaN and ±Inf, and three INT columns x1…x3
// whose 24-bit fields overflow a word together. v's sums depend on where
// the morsels merge, z holds ties (-0.0 and 0.0) across morsels, y and w
// feed SLOPE and COUNT over NULLs. gd maps r to a group for the join.
func groupWordsDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE gw (id INT, r TEXT, b BOOL, n INT, wi INT, f FLOAT, x1 INT, x2 INT, x3 INT, v FLOAT, z FLOAT, y FLOAT, w INT)`)
	db.MustExec(`CREATE TABLE gd (r TEXT, grp TEXT)`)
	fs := []any{math.Copysign(0, -1), 1.5, math.NaN(), 0.0, math.Inf(1), nil, math.Inf(-1), 2.0}
	vs := []float64{0.1, 1e16, 0.2, -1e16, 0.3, 1e-3}
	insert(t, db, "gw", rowsOf(400, func(i int) []any {
		nth := func(k int, v any) any { return maybe(i%k, func() any { return v }) }
		return []any{i, nth(13, fmt.Sprintf("r%d", i%7)), nth(11, i%3 == 0), nth(17, i%5-2), nth(19, (i%4)*20000000),
			fs[i%len(fs)], nth(23, (i%2)*16000000), nth(29, (i/2%2)*16000000), nth(31, (i/4%2)*16000000),
			vs[i%len(vs)] * float64(1+i%3), []float64{math.Copysign(0, -1), 0}[i/16%2], nth(7, float64(i%9)*0.5), nth(5, i%6)}
	})...)
	insert(t, db, "gd", []any{"r0", "even"}, []any{"r1", "odd"}, []any{"r2", "even"}, []any{"r3", "odd"},
		[]any{"r4", "even"}, []any{"r5", "odd"}, []any{"r6", nil})
}

// joinConsumersDB: a fact jf(id, k, n, f, v) of 300 rows and a dimension
// jd(k, grp, w, x) whose k repeats (a fact row matches up to three), misses
// the fact's key 'k7', adds 'k9' no fact row has and a NULL key. f holds
// -0.0 before 0.0, NaN, infinities and NULL; grp is NULL for one key.
func joinConsumersDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE jf (id INT, k TEXT, n INT, f FLOAT, v FLOAT)`)
	db.MustExec(`CREATE TABLE jd (k TEXT, grp TEXT, w INT, x FLOAT)`)
	fs := []any{math.Copysign(0, -1), 1.5, math.NaN(), 0.0, math.Inf(1), nil, 2.0, math.Inf(-1)}
	insert(t, db, "jf", rowsOf(300, func(i int) []any {
		return []any{i, maybe(i%23, func() any { return fmt.Sprintf("k%d", i%8) }), maybe(i%17, func() any { return i%5 - 2 }),
			fs[i%len(fs)], []float64{0.1, 1e16, 0.2, -1e16, 0.3}[i%5] * float64(1+i%3)}
	})...)
	var dim [][]any
	for k := 0; k < 10; k++ {
		if k == 7 {
			continue
		}
		for j := 0; j <= k%3; j++ {
			grp := any([]string{"even", "odd"}[k%2])
			if k == 5 {
				grp = nil
			}
			dim = append(dim, []any{fmt.Sprintf("k%d", k), grp, 10*k + j, float64(k) / 4})
		}
	}
	dim = append(dim, []any{nil, "none", 99, 0.5})
	insert(t, db, "jd", dim...)
}

// sheetConsumersDB is a sparse cube sf(c, p, t) with a FLOAT measure
// holding -0, NaN and infinities, a nullable INT and a nullable string, and
// a reference table sr keyed by product.
func sheetConsumersDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE sf (c TEXT, p TEXT, t INT, s FLOAT, n INT, name TEXT)`)
	db.MustExec(`CREATE TABLE sr (p TEXT, w INT)`)
	fs := []float64{1.5, math.Copysign(0, -1), 2.25, math.NaN(), 0, 7, math.Inf(1), -3.5, 12}
	var rows [][]any
	for ci, c := range []string{"a", "b", "c"} {
		for pi, p := range []string{"tv", "dvd", "vcr", "pc", "cam", "radio"} {
			for y := 2000; y < 2012; y++ {
				i := len(rows)
				if (ci+pi+y)%7 == 3 {
					continue
				}
				rows = append(rows, []any{c, p, y, fs[i%len(fs)] * float64(1+i%4),
					maybe(i%11, func() any { return i%9 - 4 }), maybe(i%13, func() any { return fmt.Sprintf("nm%d", i%5) })})
			}
		}
	}
	insert(t, db, "sf", rows...)
	insert(t, db, "sr", []any{"tv", 1}, []any{"dvd", 2}, []any{"vcr", 3}, []any{"pc", 4}, []any{"zz", 5}, []any{nil, 6})
}

// returnsRows is a case check: every statement returns rows, none an error.
func returnsRows(t *testing.T, ref []outcome) {
	for i, o := range ref {
		if o.err != "" || len(o.rows) == 0 {
			t.Errorf("statement %d: error %q, %d rows; want rows", i, o.err, len(o.rows))
		}
	}
}

// measureKindsDB: one kind per measure, with a STRING measure.
func measureKindsDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE mk (c TEXT, p TEXT, t INT, s FLOAT, n INT, name TEXT)`)
	var rows [][]any
	for ci, c := range []string{"a", "b", "c", "d"} {
		for pi, p := range []string{"tv", "dvd", "vcr", "pc"} {
			for y := 2000; y < 2008; y++ {
				if (ci+pi+y)%5 == 1 {
					continue
				}
				rows = append(rows, []any{c, p, y, float64(ci*7+pi*3+y%4+1) * 0.75, ci + pi*2 + y%3, p + "-" + c})
			}
		}
	}
	insert(t, db, "mk", rows...)
}

// sheetFramesScript is the sheet-frames case's statements.
func sheetFramesScript() []string {
	frames := `SELECT c, p, t, s, u, k FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s, 0 u, 0 k) `
	return []string{
		`SELECT c, SUM(u), MAX(k), COUNT(*) FROM (` + frames + `(UPDATE u[*, *] = s[cv(p), cv(t)] * 1.5,
			UPDATE k[*, *] = u[cv(p), cv(t)] + 1)) v GROUP BY c`,
		frames + `(UPDATE u[*, *] = s[cv(p), cv(t)] * 1.5, UPDATE k[p IN ('tv', 'pc'), *] = u[cv(p), cv(t)] / 2)
			ORDER BY c, p, t`,
		`SELECT p, SUM(k), COUNT(k) FROM (` + frames + `(UPDATE k[p IN ('tv', 'pc'), *] = s[cv(p), cv(t)] / 2)) v GROUP BY p`,
		`SELECT c, p, t, s, u FROM sf SPREADSHEET RETURN UPDATED ROWS PBY (c) DBY (p, t) MEA (s, 0 u)
			(UPSERT s['new', 2003] = s['tv', 2002] + 1, UPSERT s['sum', 2000] = s['new', 2003] * 3,
			 UPDATE u[*, *] = s[cv(p), cv(t)] * 2) ORDER BY c, p, t`,
		`SELECT p, t, COUNT(*), SUM(s) FROM (SELECT c, p, t, s FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s)
			(UPSERT s[FOR p IN ('tv', 'zz'), FOR t FROM 2010 TO 2013] = s['tv', cv(t) - 10] + 1,
			 UPDATE s[*, t > 2011] = s[cv(p), cv(t) - 1] * 2)) v GROUP BY p, t`,
		frames + `ITERATE (4) (UPDATE s[*, 2001] = s[cv(p), 2001] + coalesce(s[cv(p), 2000], 1),
			UPDATE u[*, *] = s[cv(p), 2001] + cv(t)) ORDER BY c, p, t`,
		frames + `(UPDATE u[*, t > 2000] = coalesce(u[cv(p), cv(t) - 1], 0) + s[cv(p), cv(t)]) ORDER BY c, p, t`,
		`SELECT c, p, t, n, u FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (n, 0 u)
			(UPDATE u[*, 2001] = coalesce(u[cv(p), 2002], 0) * 0 + n[cv(p), 2001],
			 UPDATE u[*, 2002] = u[cv(p), 2001] + 1) ORDER BY c, p, t`,
		`SELECT c, p, t, s, w, u FROM (SELECT c, p, t, s, CASE p WHEN 'tv' THEN 1 ELSE 2.5 END AS w FROM sf) x
			SPREADSHEET PBY (c) DBY (p, t) MEA (s, w, 0 u) (UPDATE u[*, *] = w[cv(p), cv(t)] * 2 + s[cv(p), cv(t)]) ORDER BY c, p, t`,
		`SELECT c, p, t2, s, u FROM (SELECT c, p, CASE t WHEN 2000 THEN 2000.5 ELSE t END AS t2, s FROM sf) x
			SPREADSHEET PBY (c) DBY (p, t2) MEA (s, 0 u) (UPDATE u[*, *] = s[cv(p), cv(t2)] * 2) ORDER BY c, p, t2`,
		`SELECT p, t, s, u FROM (SELECT p, t, s FROM sf WHERE c = 'a') x SPREADSHEET DBY (p, t) MEA (s, 0 u)
			(UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + s[cv(p), cv(t) - 1]) ORDER BY p, t`,
		// A window's image covers its input columns only, not the window's.
		`SELECT * FROM (SELECT c, p, t, s, n, name, SUM(s) OVER (PARTITION BY c) AS w FROM sf) x
			SPREADSHEET PBY (c) DBY (p, t) MEA (s, n, name, w) (UPDATE s[*, *] = w[cv(p), cv(t)] + 1) ORDER BY c, p, t`,
		`SELECT c, SUM(w), MAX(u), COUNT(name) FROM (SELECT * FROM (SELECT c, p, t, s, n, name, SUM(s) OVER (PARTITION BY c) AS w FROM sf) x
			SPREADSHEET PBY (c) DBY (p, t) MEA (s, n, name, w, 0 u) (UPDATE w[*, t > 2001] = w[cv(p), cv(t) - 1] * 2,
			 UPDATE u[*, *] = w[cv(p), cv(t)])) v GROUP BY c`,
	}
}

// sheetConsumerScript is the sheet-consumers case's statements.
func sheetConsumerScript() []string {
	img := `(SELECT c, p, t, s, n, u FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s, n, 0 u)
		(UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + s[cv(p), cv(t) - 1])) v`
	mix := `(SELECT c, p, t, s, n, name, m, z FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s, n, name, 0 m, NULL z)
		(UPDATE m[*, t > 2005] = s[cv(p), cv(t)] * 0.5, UPDATE name[*, *] = p || '!' || name)) v`
	upd := `(SELECT c, p, t, s, u FROM sf SPREADSHEET RETURN UPDATED ROWS PBY (c) DBY (p, t) MEA (s, 0 u)
		(UPDATE u[p IN ('tv', 'pc'), t > 2003] = s[cv(p), cv(t)] * 3)) v`
	ups := `(SELECT c, p, t, s FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s)
		(UPSERT s['brandnew', 2010] = s['tv', 2001] * 2, UPSERT s['tv', 2030] = 1)) v`
	ref := `(SELECT c, p, t, s, u FROM sf SPREADSHEET REFERENCE rr ON (SELECT p, w FROM sr WHERE p IS NOT NULL) DBY (p) MEA (w)
		PBY (c) DBY (p, t) MEA (s, 0 u) (UPDATE u[*, *] = s[cv(p), cv(t)] * w[cv(p)])) v`
	prom := `(SELECT p, t, s, u FROM (SELECT p, t, s FROM sf WHERE c = 'b') x SPREADSHEET DBY (p, t) MEA (s, 0 u)
		(UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + s[cv(p), cv(t) - 1])) v`
	return []string{
		`SELECT * FROM ` + img + ` WHERE u > 3 AND p <> 'cam'`,
		`SELECT c, p, t, m, name FROM ` + mix + ` WHERE t > 2004 AND n IS NOT NULL`,
		`SELECT c, p, t, m FROM ` + mix + ` WHERE m > 0.5`,
		`SELECT c, COUNT(*), SUM(u), MAX(s), MIN(n), COUNT(n) FROM ` + img + ` GROUP BY c`,
		`SELECT p, t, SUM(s), AVG(u), MAX(n) FROM ` + img + ` GROUP BY p, t`,
		`SELECT p, SUM(s), COUNT(z), MAX(name), SUM(m), COUNT(*) FROM ` + mix + ` GROUP BY p`,
		`SELECT t, SUM(m), MIN(m), MAX(z) FROM ` + mix + ` GROUP BY t`,
		`SELECT c, p, t, u FROM ` + img + ` ORDER BY u DESC, c, p, t`,
		`SELECT c, p, t, name, m FROM ` + mix + ` ORDER BY name, m, c, p, t`,
		`SELECT c, p, t, SUM(u) OVER (PARTITION BY c ORDER BY p, t) FROM ` + img + ` ORDER BY c, p, t`,
		`SELECT c, p, t, MAX(m) OVER (PARTITION BY p ORDER BY c, t) FROM ` + mix + ` ORDER BY c, p, t`,
		`SELECT DISTINCT c, t FROM ` + img,
		`SELECT DISTINCT m, z FROM ` + mix,
		`SELECT c, p, u FROM ` + img + ` UNION ALL SELECT c, p, s FROM sf`,
		`SELECT c, p, t, u FROM ` + img + ` ORDER BY c, p, t LIMIT 9`,
		`SELECT COUNT(*) FROM (SELECT c FROM ` + img + ` LIMIT 7) q`,
		`SELECT v.c, v.p, v.t, v.u, r.w FROM ` + img + ` JOIN sr r ON v.p = r.p`,
		`SELECT r.w, SUM(v.m), COUNT(v.name) FROM ` + mix + ` JOIN sr r ON v.p = r.p GROUP BY r.w`,
		`SELECT c || '-' || p, u * 2 + s, n + 1, t * 10 FROM ` + img,
		`SELECT name || '?', m + 1, z FROM ` + mix,
		`SELECT c, p, t FROM sf WHERE p IN (SELECT p FROM ` + img + ` WHERE u > 12)`,
		`SELECT c, p, t, u FROM ` + img + ` WHERE p IN (SELECT p FROM sr WHERE w > 2)`,
		`SELECT p, COUNT(*), SUM(u) FROM ` + upd + ` GROUP BY p`,
		`SELECT c, p, t, u FROM ` + upd + ` WHERE u > 1 ORDER BY c, p, t`,
		`SELECT p, t, COUNT(*), SUM(s) FROM ` + ups + ` GROUP BY p, t`,
		`SELECT c, p, t, s FROM ` + ups + ` WHERE p = 'brandnew' OR t = 2030 ORDER BY c, p, t`,
		`SELECT c, SUM(u), COUNT(*) FROM ` + ref + ` GROUP BY c`,
		`SELECT c, p, t, u FROM ` + ref + ` WHERE u > 5 ORDER BY u, c, p, t`,
		`SELECT p, COUNT(*), SUM(u), MAX(s) FROM ` + prom + ` GROUP BY p`,
		`SELECT p, t, u FROM ` + prom + ` WHERE u > 2 ORDER BY p, t`,
	}
}

// typedQueries sweep the filter shapes the kernel compiler supports and a
// few it must decline, joins and group-bys on plain-column keys, compute
// projections and batch aggregates over typedDB.
var typedQueries = []string{
	`SELECT a, b, c FROM t1 WHERE a > 30`,
	`SELECT a FROM t1 WHERE b <= 12.5`,
	`SELECT c FROM t1 WHERE c = 'c03'`,
	`SELECT a, c FROM t1 WHERE c <> 'c05'`,
	`SELECT a FROM t1 WHERE ok`,
	`SELECT a FROM t1 WHERE NOT ok`,
	`SELECT a FROM t1 WHERE a = 7.0`,
	`SELECT a FROM t1 WHERE a > 6.5`,
	`SELECT a FROM t1 WHERE a = 'not-a-number'`,
	`SELECT a FROM t1 WHERE NOT (a < 'x')`,
	`SELECT a, b FROM t1 WHERE a < b`,
	`SELECT a FROM t1 WHERE a = a2`,
	`SELECT a FROM t1 WHERE a BETWEEN 10 AND 40`,
	`SELECT a FROM t1 WHERE b NOT BETWEEN -5.5 AND 20`,
	`SELECT c FROM t1 WHERE c IN ('c01', 'c02', 'c19')`,
	`SELECT a FROM t1 WHERE a IN (1, 2, 3.0, 60)`,
	`SELECT a FROM t1 WHERE a NOT IN (5, NULL, 9)`,
	`SELECT c FROM t1 WHERE c LIKE 'c0%'`,
	`SELECT c FROM t1 WHERE c NOT LIKE '%1'`,
	`SELECT a FROM t1 WHERE b IS NULL`,
	`SELECT a, b FROM t1 WHERE b IS NOT NULL AND b > 0`,
	`SELECT a FROM t1 WHERE a > 10 AND (c = 'c01' OR b < 0)`,
	`SELECT a FROM t1 WHERE NOT (a > 10 AND b > 0)`,
	`SELECT a FROM t1 WHERE NOT (c = 'c02' OR b IS NULL)`,
	`SELECT a FROM t1 WHERE a % 7 < 4`,
	`SELECT a FROM t1 WHERE b * 2 > a + 1`,
	`SELECT t1.a, t2.d, t1.b FROM t1 JOIN t2 ON t1.a = t2.k`,
	`SELECT t1.c, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.k`,
	`SELECT c, SUM(b), COUNT(*) FROM t1 GROUP BY c`,
	`SELECT a, c, SUM(b) FROM t1 WHERE a > 5 GROUP BY a, c`,
	`SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.k WHERE t2.w > 2`,
	`SELECT a * 2 + b, b - a / 2.0, a * a FROM t1 WHERE a > 5`,
	`SELECT c || '-' || c, a FROM t1`,
	`SELECT a + b, a - a2, b * b FROM t1 WHERE ok`,
	`SELECT a % 5, b FROM t1 WHERE a > 10`,
	`SELECT c, SUM(b * 2 + a), AVG(b - 1.5), COUNT(b), MIN(b), MAX(b + 0.5) FROM t1 GROUP BY c`,
	`SELECT c, MIN(c), MAX(c), COUNT(*) FROM t1 GROUP BY c`,
	`SELECT ok, SUM(a), MIN(ok), MAX(ok) FROM t1 GROUP BY ok`,
	`SELECT t2.d, SUM(t1.b), COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
	`SELECT t2.d, SUM(t1.a + t2.w), AVG(t1.b) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
	`SELECT t1.a + t2.w, t1.c || '/' || t2.d FROM t1 JOIN t2 ON t1.a = t2.k`,
}

// sheetOverGroupBy draws spreadsheet PEs and operator workers from one budget.
const sheetOverGroupBy = `SELECT a, c, s, r FROM
	(SELECT a, c, SUM(b) s, 0 r FROM t1 GROUP BY a, c) v
	SPREADSHEET PBY(c) DBY(a) MEA(s, r) UPDATE ( r[*] = s[cv(a)] / sum(s)[*] )`

// parallelQueries are the morsel-parallel operator shapes over parallelPropDB.
var parallelQueries = []string{
	`SELECT a, b * 2.5 + 1, c FROM t1 WHERE a % 7 < 4`,
	`SELECT c, b / (a + 31) FROM t1 WHERE b > -50`,
	`SELECT t1.a, t2.d, t1.b + t2.w FROM t1 JOIN t2 ON t1.a = t2.k`,
	`SELECT t1.c, t2.d FROM t1 LEFT JOIN t2 ON t1.a = t2.k AND t1.b > t2.w`,
	`SELECT t2.k, t1.b FROM t1 RIGHT JOIN t2 ON t1.a = t2.k WHERE t2.w > 1`,
	`SELECT c, SUM(b), COUNT(*), AVG(b) FROM t1 GROUP BY c`,
	`SELECT a % 5, MIN(b), MAX(c), SUM(a) FROM t1 GROUP BY a % 5`,
	`SELECT COUNT(b), SUM(b), SLOPE(b, a) FROM t1`,
	`SELECT t2.d, SUM(t1.b), COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.k GROUP BY t2.d`,
	sheetOverGroupBy,
}

// factCase runs over randomFactDB(seed): outer predicates over a
// spreadsheet view (the optimizer's soundness), upserts under partition
// parallelism, the data movers; the first five seeds add expression-heavy
// statements after an UPDATE, and an INSERT … SELECT … SPREADSHEET.
func factCase(seed int64) diffCase {
	products := []string{"dvd", "vcr", "tv", "video"}
	rng := rand.New(rand.NewSource(seed + 1000))
	var script []string
	for i := 0; i < 2; i++ {
		p := rng.Intn(len(products))
		script = append(script, fmt.Sprintf(`SELECT * FROM (SELECT r, p, t, s FROM f
			SPREADSHEET PBY(r) DBY (p, t) MEA (s) UPDATE
			( F1: s['dvd',2001] = s['dvd', 2000]*1.2,
			  F2: s['vcr',2001] = s['vcr',1998] + s['vcr',1999],
			  F3: s['tv', 2001] = avg(s)['tv', 1995<t<2001],
			  F4: s[*, 2002]    = s[cv(p), 2001] + 1 )) v
			WHERE p IN ('%s', '%s') AND r = '%s' AND t >= %d ORDER BY r, p, t`,
			products[p], products[(p+1)%4], []string{"west", "east", "north"}[rng.Intn(3)], 1996+rng.Intn(6)))
	}
	script = append(script, `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s)
			( UPSERT s['all', 2002] = sum(s)[p != 'all', t = 2001], s[*, 2003] = s[cv(p), 2002] * 2 )`,
		`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s)
			( s[*, 2002] = avg(s)[cv(p), 1995 <= t <= 2001] )`,
		movementQuery)
	if seed >= 5 {
		return diffCase{name: fmt.Sprintf("fact/seed=%d", seed), fixture: randomFactDB(seed), script: script, configs: "plan move"}
	}
	script = append(script,
		`UPDATE f SET s = s * 1.5 + 1 WHERE p LIKE 'v%' AND t % 2 = 0`,
		`SELECT r, p, t, s FROM f WHERE s * 2 + 1 > 50 AND p LIKE 'd%' OR t IN (1996, 1999, 2001)`,
		`SELECT upper(r) || '-' || p, s / 2.0 FROM f WHERE NOT (t BETWEEN 1997 AND 1999)`,
		`SELECT a.r, a.p, a.s + b.s FROM f a JOIN f b ON a.r = b.r AND a.p = b.p AND a.t = b.t - 1`,
		`SELECT r, p, sum(s), count(*), avg(s + 1) FROM f WHERE t >= 1996 GROUP BY r, p ORDER BY r, p`,
		`SELECT r, p, t, s, row_number() OVER (PARTITION BY r ORDER BY s DESC, p, t) FROM f ORDER BY r, p, t`,
		`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) UPDATE
			( s['dvd', 2001] = s['dvd', 2000] * 1.2 + avg(s)['tv', 1995 < t < 2001], s[*, 2002] = s[cv(p), 2001] + 1 )`,
		`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) ( UPSERT s['all', 2003] = sum(s)[p != 'all', t = 2001] )`,
		`CREATE TABLE fx (r TEXT, p TEXT, t INT, s FLOAT)`,
		`INSERT INTO fx SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s)
			( UPSERT s['all', 2004] = sum(s)[p != 'all', t = 2001] * 0.5 ) ORDER BY r, p, t`)
	return diffCase{name: fmt.Sprintf("fact/seed=%d", seed), fixture: randomFactDB(seed), script: script,
		configs: "exec plan cache b3 spill3 move served"}
}

// snapshotInserts creates f and fills it one statement per row.
func snapshotInserts() []string {
	script := []string{`CREATE TABLE f (r TEXT, p TEXT, t INT, s FLOAT)`}
	for _, r := range []string{"west", "east"} {
		for pi, p := range []string{"dvd", "vcr", "tv"} {
			for ti := 1998; ti <= 2002; ti++ {
				script = append(script, fmt.Sprintf(`INSERT INTO f VALUES ('%s','%s',%d,%d)`, r, p, ti, (ti-1990)*(pi+1)))
			}
		}
	}
	return script
}

// cacheScript reads the cache fixture, then again after each write: a warm
// tier must notice the version bump.
func cacheScript() []string {
	script := slices.Clone(cacheQueries)
	for _, dml := range []string{
		`INSERT INTO sales VALUES ('west', 'dvd', 2003, 42.5)`,
		`UPDATE sales SET s = s + 1 WHERE p = 'vcr' AND t = 2000`,
		`DELETE FROM sales WHERE r = 'east' AND t = 1998`,
		`INSERT INTO names VALUES ('amp', 'audio')`,
	} {
		script = append(append(script, dml), cacheQueries...)
	}
	return script
}

func diffCorpus() []diffCase {
	var cases []diffCase
	for seed := int64(0); seed < 3; seed++ {
		cases = append(cases, diffCase{name: fmt.Sprintf("typed/seed=%d", seed), fixture: typedDB(seed), script: typedQueries, configs: "exec plan"})
	}
	for _, seed := range []int64{0, 1, 2, 3, 42} {
		cases = append(cases, diffCase{name: fmt.Sprintf("parallel-ops/seed=%d", seed), fixture: parallelPropDB(seed), script: parallelQueries, configs: "exec b3"})
	}
	for seed := int64(0); seed < 15; seed++ {
		cases = append(cases, factCase(seed))
	}
	const sheet = `SELECT r, p, t, s, u, z FROM fr SPREADSHEET PBY(r) DBY (p, t) MEA (s, u, z) `
	const bucket = `SELECT r, p, t, s, u, z FROM bb SPREADSHEET
		REFERENCE bp ON (SELECT p, par, w FROM bpar) DBY (p) MEA (par, w)
		REFERENCE bt ON (SELECT t, prev FROM bprev) DBY (t) MEA (prev)
		REFERENCE br ON (SELECT r, k FROM bpart) DBY (r) MEA (k)
		PBY (r) DBY (p, t) MEA (s, d1, d2, u, z) RULES UPDATE `
	const sheetF, byRPT = `SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY (p, t) MEA (s) `, ` ORDER BY r, p, t`
	const baseF, baseG = `SELECT r, p, t, s FROM f ORDER BY r, p, t`, `SELECT r, p, t, s, v, x, y FROM g ORDER BY r, p, t`
	const iterF, byPT = `SELECT p, t, s, v FROM itf SPREADSHEET PBY (p) DBY (t) MEA (s, v) `, ` ORDER BY p, t`
	const qualB, byGT = `SELECT g, t, s, c FROM qb SPREADSHEET PBY (g) DBY (t) MEA (s, c) `, ` ORDER BY g, t`
	return append(cases,
		// The paper's warehouse: a join by hash and by nested loop, an upsert
		// on PEs, a budgeted range aggregate.
		diffCase{name: "warehouse", fixture: warehouseDB, configs: "exec plan b1 b3 spill3 move served", script: []string{
			`CREATE TABLE dim (p TEXT, cat TEXT)`,
			`INSERT INTO dim VALUES ('dvd','video'),('vcr','video'),('tv','display')`,
			`SELECT f.p, dim.cat, SUM(f.s) s FROM f JOIN dim ON f.p = dim.p WHERE f.r = 'west' GROUP BY f.p, dim.cat ORDER BY f.p`,
			sheetF + `( s[*, 2003] = s[cv(p), 2002] * 1.5, UPSERT s['video', 2003] = s['tv', 2003] + s['vcr', 2003] )` + byRPT,
			sheetF + `( s[*, 2002] = avg(s)[cv(p), 1995 <= t <= 2001] )`,
		}},
		diffCase{name: "cache", fixture: cacheFixture, script: cacheScript(), configs: "exec cache plan served"},
		// SELECTs read pinned images; the writes before them wrote live rows
		// under the exclusive lock.
		diffCase{name: "snapshot", fixture: func(testing.TB, *sqlsheet.DB) {}, configs: "exec", script: append(snapshotInserts(),
			`UPDATE f SET s = s * 2 WHERE p = 'tv'`,
			`DELETE FROM f WHERE t = 1999`,
			`SELECT r, p, t, s FROM f ORDER BY r, p, t`,
			sheetF+`( s[*, 2002] = s[cv(p), 2001] * 1.5, UPSERT s['video', 2002] = s['tv', 2002] + s['vcr', 2002] )`,
			`SELECT p, SUM(s) FROM f GROUP BY p ORDER BY p`)},
		// An all-NULL column and an empty table, then writes that change the
		// image under the next statement: a first non-NULL z, a new string.
		diffCase{name: "all-null-column", fixture: allNullDB, configs: "exec served", script: []string{
			`SELECT a, z FROM nt WHERE z IS NULL`,
			`SELECT a FROM nt WHERE z IS NOT NULL`,
			`SELECT a FROM nt WHERE z > 0`,
			`SELECT a FROM nt WHERE z = 1 OR a < 10`,
			`SELECT a FROM nt WHERE NOT (z < 5)`,
			`SELECT c, COUNT(z), COUNT(*) FROM nt GROUP BY c`,
			`SELECT a FROM empty WHERE a > 0`,
			`SELECT a, b FROM empty`,
			`SELECT b, SUM(a) FROM empty GROUP BY b`,
			`SELECT a FROM nt WHERE a > 1000`,
			`SELECT a + z, z * 2.0, c || '-' FROM nt`,
			`SELECT c, SUM(z), AVG(z), MIN(z), MAX(z), COUNT(z) FROM nt GROUP BY c`,
			`SELECT b, SUM(a + 1) FROM empty GROUP BY b`,
			`UPDATE nt SET a = a + 1000 WHERE z IS NULL AND c = 's1'`,
			`UPDATE nt SET z = 1.5 WHERE a < 10`,
			`SELECT c, COUNT(z) FROM nt GROUP BY c`,
			`DELETE FROM nt WHERE z IS NULL AND c = 's2'`,
			`UPDATE nt SET c = 'fresh' WHERE c IN ('s3', 's4') AND a > 50`,
			`UPDATE nt SET c = NULL WHERE a = 3`,
			`DELETE FROM nt WHERE c IS NULL`,
			`UPDATE nt SET a = a * 2 WHERE z IS NOT NULL`,
			`DELETE FROM nt WHERE a > 100000`,
			`UPDATE nt SET a = 1 WHERE c = 'nope'`,
			`UPDATE nt SET z = NULL`,
			`DELETE FROM nt WHERE c LIKE 'f%' OR NOT (a < 1000)`,
		}},
		// int64 wraparound, NaN/Inf arithmetic, int→float widening, and
		// writes over them.
		diffCase{name: "numeric-edges", fixture: numDB, configs: "exec served", script: []string{
			`SELECT i FROM num WHERE f > 0`,
			`SELECT i FROM num WHERE f < 0`,
			`SELECT i FROM num WHERE f = f`,
			`SELECT i, f FROM num WHERE i = f`,
			`SELECT i FROM num WHERE i > f`,
			`SELECT f FROM num WHERE f IN (7, 9223372036854775807)`,
			`SELECT i FROM num WHERE i BETWEEN -10 AND 10`,
			`SELECT i FROM num WHERE NOT (f >= 0)`,
			`SELECT i + i, f * 2.0, i - 1 FROM num`,
			`SELECT i + f, f - f, f / 2.0 FROM num`,
			`SELECT SUM(i), SUM(f), AVG(f), MIN(f), MAX(f), MIN(i), MAX(i), COUNT(f) FROM num`,
			`UPDATE num SET f = f + 1 WHERE f > 0`,
			`UPDATE num SET i = 0 WHERE f = f`,
			`SELECT i FROM num WHERE f >= 1`,
			`DELETE FROM num WHERE f < 0`,
			`INSERT INTO num VALUES (11, 0.5), (12, NULL)`,
			`UPDATE num SET f = NULL WHERE i = 11`,
			`UPDATE num SET i = i + 1`,
			`DELETE FROM num WHERE i > f`,
			`DELETE FROM num WHERE i IS NULL OR f IS NULL`,
			`DELETE FROM num WHERE i = 12345`,
			`UPDATE num SET f = 1 / 0.0 WHERE i BETWEEN 0 AND 5`,
			`DELETE FROM num`,
			`INSERT INTO num VALUES (1, 1.5)`,
		}},
		// Windows, ORDER BY and LIMIT (see fusedWindows).
		diffCase{name: "window-order", fixture: windowDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz",
			script: windowOrderScript(),
			check: func(t *testing.T, ref []outcome) {
				// An absorbed ORDER BY (and LIMIT) returns what the window
				// then a stable sort (kept apart by a derived table) returns.
				np := len(windowPairs)
				for i := range windowPairs {
					if fused, apart := ref[i], ref[np+len(windowScript)+i]; !slices.Equal(fused.rows, apart.rows) || fused.err != "" {
						t.Errorf("fused window %d differs from window then sort:\n%s", i, firstDiff(apart.text(false), fused.text(false)))
					}
				}
				at := func(stmt string) outcome { return ref[np+slices.Index(windowScript, stmt)] }
				// NULLs first under DESC, then NaN (after every number),
				// then the numbers descending, -0.0 tying 0.0.
				if got, want := at(nanSort).rows, []string{" N", " F7ff8000000000001", " F7ff8000000000002", " F7ff0000000000000",
					" F4000000000000000", " F3ff8000000000000", " F3ff8000000000000", " F8000000000000000", " F0",
					" Fc002000000000000", " Ffff0000000000000"}; !slices.Equal(got, want) {
					t.Errorf("ORDER BY f DESC: %q, want %q", got, want)
				}
				for _, stmt := range windowScript {
					if strings.Contains(stmt, "LIMIT -1") || strings.Contains(stmt, "LIMIT 1e") || strings.Contains(stmt, "LIMIT 2.7") ||
						strings.Contains(stmt, "LIMIT 'x'") {
						if !strings.Contains(at(stmt).err, "LIMIT must be a non-negative integer constant") {
							t.Errorf("%s: %q, want the LIMIT error", stmt, at(stmt).err)
						}
					}
				}
				if len(at(limit0).rows) != 0 || len(at(limitPast).rows) != 130 || len(at(limitTwo).rows) != 2 ||
					len(ref[3].rows) != 30 || len(ref[4].rows) != 0 || len(ref[5].rows) != 130 {
					t.Errorf("LIMIT 0/1000/2.0 returned %d/%d/%d rows, the fused windows %d/%d/%d", len(at(limit0).rows),
						len(at(limitPast).rows), len(at(limitTwo).rows), len(ref[3].rows), len(ref[4].rows), len(ref[5].rows))
				}
			}},
		// Every aggregate is a fresh accumulator fed exactly the values it
		// covers: a rule's aggregate over cells earlier rules overwrote, a
		// window frame sliding past overflow, cancellation and NaN.
		diffCase{name: "add-only-aggregates", fixture: addOnlyDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz",
			script: addOnlyScript(), check: func(t *testing.T, ref []outcome) {
				// at is the value in column col of the row of statement i
				// whose leading values are key.
				at := func(i int, key string, col int) string {
					for _, r := range ref[i].rows {
						if strings.HasPrefix(r, key+" ") {
							return strings.Fields(r)[col]
						}
					}
					return "missing"
				}
				frame := func(fr string) int { return 2 + slices.Index(addOnlyFrames, fr) }
				bounded, suffix := frame(" ROWS BETWEEN 1 PRECEDING AND CURRENT ROW"), frame(" ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING")
				for _, c := range []struct {
					what, got, want string
				}{
					{"s[5] = 400 + 14", at(0, ` S"a" I5`, 2), "F" + strconv.FormatUint(math.Float64bits(414), 16)},
					{"s[5] = 1 + 0.2 + 1e16 + 0.3 - 1e16", at(1, ` S"b" I5`, 2), "F" + strconv.FormatUint(math.Float64bits(2), 16)},
					{"SUM over the frame {1, 1}", at(bounded, ` S"a" I5`, 2), "F" + strconv.FormatUint(math.Float64bits(2), 16)},
					{"SUM over the INT frame {2, 3}", at(bounded, ` S"a" I3`, 9), "I5"},
					// A MIN/MAX tie keeps the first value added: forward
					// passes add in partition order, the suffix's backward
					// pass from the partition's end.
					{"MAX over {INT 1 (i = 4), FLOAT 1.0 (i = 5)}", at(bounded, ` S"a" I5`, 10), "I1"},
					{"MAX over the suffix {INT 1 (i = 4), FLOAT 1.0 (i = 5)}", at(suffix, ` S"a" I4`, 10), "F3ff0000000000000"},
				} {
					if c.got != c.want {
						t.Errorf("%s: %s, want %s", c.what, c.got, c.want)
					}
				}
			}},
		// Values mixing kinds are computed ones only: a CASE as a
		// spreadsheet dimension, which the batch rule cannot image and
		// leaves per cell, and as a sort key the budgeted sort spills
		// kind-tagged; as a measure it is FLOAT, its INT arm converted at
		// the sheet's input. A write of another kind than its column's is
		// converted (x, z) or fails with the catalog's typed error (y, b),
		// the same text on every path, leaving the table untouched.
		diffCase{name: "mixed-kinds", fixture: mixedDB, configs: "exec served spill3", script: []string{
			`SELECT id, x, CASE WHEN y > 3 THEN 1 ELSE 2.5 END AS m FROM mixed ORDER BY id`,
			`SELECT d, x, m, w FROM (SELECT CASE WHEN id % 2 = 0 THEN id ELSE id + 0.5 END AS d, x,
				CASE WHEN y > 3 THEN 1 ELSE 2.5 END AS m FROM mixed) q
			 SPREADSHEET DBY (d) MEA (x, m, w) ( w[*] = m[cv(d)] * 2 + x[cv(d)] ) ORDER BY d`,
			`SELECT id, CASE WHEN y > 3 THEN z WHEN b THEN b ELSE x END AS k FROM mixed ORDER BY k, id`,
			`UPDATE mixed SET y = 'str' WHERE x > 3`,
			`DELETE FROM mixed WHERE x = 'a'`,
			`UPDATE mixed SET x = 2.5 WHERE y IS NULL OR x IS NULL`,
			`DELETE FROM mixed WHERE x < y`,
			`UPDATE mixed SET y = x / 4 WHERE y = 3`,
			`UPDATE mixed SET y = x WHERE y = 3`,
			`UPDATE mixed SET z = x, b = y WHERE y = 1`,
			`UPDATE mixed SET z = x WHERE y = 1`,
			`INSERT INTO mixed (id, y) VALUES (100, 2.5)`,
			`INSERT INTO mixed (id, y) VALUES (101, 1e300)`,
			`INSERT INTO mixed (id, y) VALUES (102, -1e300)`,
			`INSERT INTO mixed (id, y) VALUES (103, 9223372036854775808.0)`,
			`INSERT INTO mixed (id, x, y) VALUES (104, 5, 4.0), (105, NULL, -9223372036854775808.0)`,
			`SELECT id, x, y FROM mixed WHERE id >= 100 ORDER BY id`,
			`UPDATE mixed SET y = 0 WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x IN (1, 'b', TRUE)`,
		}, check: func(t *testing.T, ref []outcome) {
			for i, want := range map[int]string{
				3: `column "y": cannot store STRING value as INT`, 7: "as INT: not an integer in range",
				9: `column "b": cannot store INT value as BOOL`, 11: "2.5 as INT", 12: "1e+300 as INT",
				13: "-1e+300 as INT", 14: "9.223372036854776e+18 as INT",
			} {
				if !strings.Contains(ref[i].err, want) {
					t.Errorf("statement %d: %q, want an error containing %q", i, ref[i].err, want)
				}
			}
			if got := ref[16].text(false); !strings.Contains(got, "I104 F4014000000000000 I4") || !strings.Contains(got, "I105 N I-9223372036854775808") {
				t.Errorf("converted INSERT reads back %s", got)
			}
		}},
		diffCase{name: "closure-only-predicates", fixture: closureDB, configs: "exec served", script: []string{
			`DELETE FROM t1 WHERE a IN (SELECT k FROM t2)`,
			`UPDATE t1 SET b = 0 WHERE a % 7 < 4 AND c < 'c12'`,
			`UPDATE t1 SET c = c || '!' WHERE a > (SELECT MAX(k) FROM t2) AND c LIKE 'c0%'`,
			`UPDATE t1 SET a = a + 1, b = b * 2 WHERE c = 'c03' OR c = 'c04!'`,
			`DELETE FROM t1 WHERE b * 2 > a + 1`,
			`DELETE FROM t1 WHERE c NOT LIKE '%!' AND a BETWEEN 10 AND 30`,
		}},
		// A dictionary just under the cap, pushed past it by an UPDATE; rows
		// found by kernel and by closure, at one worker and at eight.
		diffCase{name: "dict-overflow", long: true, configs: "row-w8 vec-w1 vec-w8",
			fixture: dictDB("(id INT, u TEXT)", colstore.DictMaxEntries-200), script: []string{
				`UPDATE big SET u = 'dup' WHERE id < 300`,
				`UPDATE big SET u = u || '!' WHERE id >= 300 AND id < 1500`,
				`SELECT u, COUNT(*), MIN(id) FROM big WHERE id % 7 = 0 GROUP BY u`,
				`DELETE FROM big WHERE u LIKE 'u00001%'`,
				`UPDATE big SET u = 'u000000' WHERE u > 'u065000'`,
				`DELETE FROM big WHERE u IS NULL`,
				`DELETE FROM big WHERE u = 'dup' OR u IN ('u000400!', 'u065001')`,
				`SELECT u, COUNT(*), MIN(id), MAX(id) FROM big GROUP BY u`,
			}},
		// A column past the cap from the start, scanned as plain strings and
		// read by a rule whose frame image overflows too.
		diffCase{name: "dict-overflow-scan", long: true, configs: "exec",
			fixture: dictDB("(id INT, u TEXT, grp INT, v TEXT)", colstore.DictMaxEntries+500, 0, "x"), script: []string{
				fmt.Sprintf(`SELECT id FROM big WHERE u = 'u%06d'`, colstore.DictMaxEntries+7),
				`SELECT id FROM big WHERE u LIKE 'u00001%'`,
				`SELECT id FROM big WHERE u IS NULL`,
				`SELECT id FROM big WHERE u > 'u065535' AND id < 66000`,
				`SELECT u || '!', id FROM big WHERE id < 300`,
				`SELECT MIN(u), MAX(u), COUNT(u), COUNT(*) FROM big`,
				`SELECT grp, id, u, v FROM big SPREADSHEET PBY(grp) DBY (id) MEA (u, v) ( UPDATE v[*] = u[cv(id)] || '!' ) ORDER BY id`,
			}},
		diffCase{name: "chunk-straddle", fixture: straddleDB, configs: "exec", script: []string{
			sheetF + `( UPDATE s['tv',2001] = s['tv',1999] + s['tv',2000],
				UPSERT s['all',2001] = s['tv',2001] + s['vcr',2001] + s['dvd',2001] )` + byRPT,
			`SELECT r, p, t, s FROM f WHERE t >= 1995 SPREADSHEET PBY(r, p) DBY (t) MEA (s) ( UPDATE s[2001] = s[2000] * 2 )` + byRPT,
		}},
		// Scans over ranges wider than a probe unfolds (the narrow last one
		// probes beside them), a predicate qualifier the batch scan declines,
		// and all-NULL and NaN/Inf accumulation.
		diffCase{name: "batch-scan", fixture: scanDB, configs: "exec", script: []string{
			sheetF + `( UPSERT s['agg', 3000] = sum(s)['tv', 1700 <= t <= 1999],
				UPSERT s['agg', 3001] = count(s)[*, *],
				UPSERT s['agg', 3002] = avg(s)['dvd', *],
				UPSERT s['agg', 3003] = max(s)[*, 1000 < t < 2000],
				UPSERT s['agg', 3004] = min(s)['vcr', *],
				UPSERT s['agg', 3005] = slope(s, t)['tv', *],
				UPSERT s['agg', 3006] = sum(s)['amp', 1990 <= t <= 1999] )` + byRPT,
			sheetF + `( UPSERT s['pq', 3100] = sum(s)[p <> 'pq', t < 3000] )` + byRPT,
			sheetF + `( s[*, 3200] = avg(s)[cv(p), 1990 <= t <= 2001] )` + byRPT,
			`SELECT r, t, s FROM g SPREADSHEET PBY(r) DBY (t) MEA (s)
			 ( UPSERT s[9000] = sum(s)[-1000 <= t <= 100], UPSERT s[9001] = avg(s)[-1000 <= t < 100],
			   UPSERT s[9002] = min(s)[0 <= t <= 1000], UPSERT s[9003] = max(s)[-500 <= t < 50],
			   UPSERT s[9004] = count(s)[0 <= t <= 500] ) ORDER BY r, t`,
		}},
		// Existential formulas, FOR loops, a batchable broadcast aggregate and
		// a per-target one that falls back, an all-NULL read, ITERATE.
		diffCase{name: "rules", fixture: rulesDB, configs: "exec", script: []string{
			sheet + `( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5 + s[cv(p), cv(t) - 1] )` + byRPT,
			sheet + `( UPDATE u['dvd', 1990 <= t <= 2005] = s[cv(p), cv(t)] + 100,
				UPDATE u[p IN ('tv','vcr'), t > 1990] = s[cv(p), cv(t)] / 2 - 1 )` + byRPT,
			sheet + `( UPDATE u[FOR p IN ('tv','vcr','dvd','amp'), FOR t FROM 1980 TO 2009] = s[cv(p), cv(t)] * 1.01 + 1 )` + byRPT,
			sheet + `( UPSERT u[FOR p IN ('tv','vcr'), FOR t FROM 2010 TO 2030] = s[cv(p), cv(t) - 30] * 2 )` + byRPT,
			sheet + `( UPDATE u['tv', t > 2000] = s[cv(p), cv(t)] - min(s)['tv', 1980 <= t <= 1999] )` + byRPT,
			sheet + `( UPDATE u[*, *] = avg(s)[cv(p), 1990 <= t <= 1999] )` + byRPT,
			sheet + `( UPDATE u[*, *] = z[cv(p), cv(t)] )` + byRPT,
			`SELECT t, s FROM it SPREADSHEET DBY (t) MEA (s) ITERATE (4) ( s[0] = s[0] / 2 + s[1] * 0.001 ) ORDER BY t`,
		}},
		// Rules batched over every partition of a bucket, reference-sheet
		// reads become gathers: nested with a miss (p7) and a NULL parent
		// (p2); a NULL measure and a sheet-qualified nested read; an INT cv(t)
		// and a FLOAT cv(t) * 1.0 reading one key; a PBY-keyed reference; a
		// batched rule beside a per-cell one (CASE has no kernel); and a
		// division by zero in F1 of partition b and F2 of partition a, where
		// level → rule → frame order reports F1.
		diffCase{name: "bucket-batch", fixture: bucketDB, configs: "vec-w1 b1 b3 b16", script: []string{
			bucket + `( u[*, *] = s[cv(p), cv(t)] / s[par[cv(p)], cv(t)] )` + byRPT,
			bucket + `( u[*, *] = w[cv(p)] * s[cv(p), cv(t)] + bp.w[par[cv(p)]] )` + byRPT,
			bucket + `( u[*, t > 1] = s[cv(p), prev[cv(t)]] + s[cv(p), bt.prev[cv(t) * 1.0]] )` + byRPT,
			bucket + `( u[*, *] = s[cv(p), cv(t)] * k[cv(r)] )` + byRPT,
			bucket + `( u[*, *] = s[par[cv(p)], cv(t)] * 2, z[*, *] = CASE WHEN s[cv(p), cv(t)] > 5 THEN 1 ELSE 0 END )` + byRPT,
			bucket + `( F1: u[*, *] = s[cv(p), cv(t)] / d1[cv(p), cv(t)], F2: z[*, *] = s[cv(p), cv(t)] / d2[cv(p), cv(t)] )` + byRPT,
		}, check: func(t *testing.T, ref []outcome) {
			for i, o := range ref[:5] {
				if len(o.rows) < 10000 {
					t.Errorf("statement %d: only %d rows", i, len(o.rows))
				}
			}
			if got := ref[5].text(false); got != "error: f1: division by zero" {
				t.Errorf("division statement: %q, want F1's error", got)
			}
		}},
		// Cell keys as integers (see cellKeysDB), each UPSERT three runs
		// through the structure cache, so a cached structure is reused after
		// a clone of it grew: 2.0 read by INT qualifiers and through an
		// INT-keyed sheet; a FLOAT-keyed sheet read by INTs, NULL and -0.0
		// (as 0) cells; a string the dictionary lacks, arriving by UPSERT;
		// an UPSERT growing both domains past their built fields; and three
		// dimensions whose fields overflow a word, on byte keys.
		diffCase{name: "cell-keys", fixture: cellKeysDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz", runs: 3, script: []string{
			`SELECT r, d, t, s, u FROM ck SPREADSHEET REFERENCE kw ON (SELECT k, w FROM ckw) DBY (k) MEA (w)
			 PBY (r) DBY (d, t) MEA (s, 0 u) RULES UPDATE ( u[*, *] = s[cv(d), cv(t)] * w[cv(d)] + s[2, 1] ) ORDER BY r, d, t`,
			`SELECT r, d, t, u FROM ck SPREADSHEET REFERENCE fk ON (SELECT kf, v FROM ckf) DBY (kf) MEA (v)
			 PBY (r) DBY (d, t) MEA (s, 0 u) RULES UPDATE ( u[*, *] = v[cv(t)] + s[NULL, cv(t)] + s[0, cv(t)] ) ORDER BY r, d, t`,
			`SELECT r, p, s, u FROM cs SPREADSHEET PBY (r) DBY (p) MEA (s, 0 u)
			 RULES UPSERT ( s['zzz'] = s['p1'] * 2, u[*] = s[cv(p)] + s['zzz'] ) ORDER BY r, p`,
			`SELECT r, d, t, s FROM ck SPREADSHEET RETURN UPDATED ROWS PBY (r) DBY (d, t) MEA (s)
			 RULES UPSERT ( s[FOR d IN (2, 7.5), FOR t FROM 1 TO 60 INCREMENT 1] = s[1, 1] + cv(t) ) ORDER BY r, d, t`,
			`SELECT r, x, y, z, s, u FROM c3 SPREADSHEET PBY (r) DBY (x, y, z) MEA (s, 0 u)
			 RULES UPSERT ( s[1, 2, 3] = s[0, 0, 0] + 1, s[16000000, 2, 3] = 5,
			                u[*, *, *] = s[cv(x), cv(y), cv(z)] * 2 + s[15000000, 0, 15000000] ) ORDER BY r, x, y, z`,
		}, check: func(t *testing.T, ref []outcome) {
			at := func(i int, key string, col int) string {
				for _, r := range ref[i].rows {
					if strings.HasPrefix(r, key+" ") {
						return strings.Fields(r)[col]
					}
				}
				return "missing"
			}
			f := func(x float64) string { return "F" + strconv.FormatUint(math.Float64bits(x), 16) }
			for _, c := range []struct {
				what, got, want string
			}{
				{"u[2.0, 2] = 12 * w[2] + s[2, 1]", at(0, ` S"a" `+f(2)+` I2`, 4), f(131)},
				{"u[1.0, 1] = v[1] + s[NULL, 1] + s[0, 1]", at(1, ` S"a" `+f(1)+` I1`, 3), f(0.5 + 51 + 31)},
				{"u[NaN, 3] reads its own NaN cell", at(1, ` S"b" `+f(math.NaN())+` I3`, 3), "N"},
				{"s['zzz'] = s['p1'] * 2", at(2, ` S"a" S"zzz"`, 2), f(2)},
				{"u['zzz'] = s['zzz'] + s['zzz']", at(2, ` S"a" S"zzz"`, 3), f(4)},
				{"s[7.5, 60] = s[1, 1] + 60", at(3, ` S"a" `+f(7.5)+` I60`, 3), f(61)},
				{"s[2, 60] = s[1, 1] + 60, as INT 2", at(3, ` S"b" I2 I60`, 3), f(161)},
				{"s[1, 2, 3] = s[0, 0, 0] + 1", at(4, ` S"a" I1 I2 I3`, 4), f(2)},
				{"u[1, 2, 3] = 2 * 2 + s[15000000, 0, 15000000]", at(4, ` S"a" I1 I2 I3`, 5), f(10)},
				{"u[16000000, 2, 3] = 5 * 2 + 6", at(4, ` S"b" I16000000 I2 I3`, 5), f(16)},
			} {
				if c.got != c.want {
					t.Errorf("%s: %s, want %s", c.what, c.got, c.want)
				}
			}
			if n := len(ref[3].rows); n != 2*2*60 {
				t.Errorf("the growing UPSERT returned %d updated rows, want 240", n)
			}
		}},
		// Models whose state outlives a level, over 24 partitions: ITERATE …
		// UNTIL with previous(), each partition converging on its own pass
		// (p % 9 + 2), beside a rule that may batch; SEQUENTIAL ORDER; a
		// cyclic AUTOMATIC model, a two-rule cycle converging on pass 1 or
		// 2 and an existential self-loop; an UPSERT inside ITERATE whose
		// target depends on the partition; and a rule failing in partition
		// 17 only. The spill groups run these frame by frame, the others
		// over whole buckets.
		diffCase{name: "iterate-frames", fixture: iterFramesDB, configs: "exec plan b1 b3 b16 spill3 move served fuzz", script: []string{
			iterF + `ITERATE (30) UNTIL (previous(s[1]) >= p % 9 + 1)
			 ( s[1] = s[1] + 1, v[*] = s[1] * 10 + cv(t) )` + byPT,
			iterF + `SEQUENTIAL ORDER ( v[*] = s[cv(t)] * 2, s[t > 1] = v[cv(t) - 1] + s[cv(t)], v[2] = sum(s)[*] )` + byPT,
			iterF + `( s[1] = s[2], s[2] = s[1], v[1] = s[1], v[t > 1] = v[cv(t) - 1] + s[cv(t)] )` + byPT,
			iterF + `RULES UPSERT ITERATE (3) ( s[p % 3 + 7] = coalesce(s[cv(t)], 0) + s[3], v[*] = s[cv(t)] * 2 )` + byPT,
			iterF + `ITERATE (2) ( v[*] = s[cv(t)] + 1, s[*] = v[cv(t)] / (p - 17) )` + byPT,
		}, check: func(t *testing.T, ref []outcome) {
			f := func(x float64) string { return "F" + strconv.FormatUint(math.Float64bits(x), 16) }
			for p := 0; p < 24; p++ {
				want := fmt.Sprintf(" I%d I1 %s %s", p, f(float64(p%9+2)), f(float64(10*(p%9+2)+1)))
				if got := ref[0].rows[6*p]; got != want {
					t.Errorf("ITERATE partition %d: %s, want %s", p, got, want)
				}
			}
			if got := ref[4].text(false); got != "error: rule#2: division by zero" {
				t.Errorf("partition 17's rule: %q, want its division by zero", got)
			}
		}},
		// A bare column on a rule's right side reads the target row, at the
		// top level and inside a cell reference's qualifier alike: each
		// statement equals its cv() form (even statements), with or without
		// an aggregate beside it, on a single-cell and an existential left
		// side. A PBY column in a qualifier reads the partition value. A left
		// side predicate reads its candidate row the same way, inside a
		// nested cell reference too.
		diffCase{name: "qualifier-binding", fixture: qualBindDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz", script: []string{
			qualB + `( c[*] = s[t - 1] )` + byGT,
			qualB + `( c[*] = s[cv(t) - 1] )` + byGT,
			qualB + `( c[*] = s[t - 1] + 0 * sum(s)[*] )` + byGT,
			qualB + `( c[*] = s[cv(t) - 1] + 0 * sum(s)[*] )` + byGT,
			qualB + `( c[t > 1] = s[t - 1] )` + byGT,
			qualB + `( c[t > 1] = s[cv(t) - 1] )` + byGT,
			qualB + `( c[2] = s[t - 1] + 100 * t )` + byGT,
			qualB + `( c[2] = s[cv(t) - 1] + 100 * cv(t) )` + byGT,
			qualB + `( c[*] = s[g] )` + byGT,
			qualB + `( c[3] = s[g + 1] + 1 )` + byGT,
			`SELECT t, s, c FROM qn SPREADSHEET DBY (t) MEA (s, c) RULES UPDATE ( c[t < s[t]] = 1 ) ORDER BY t`,
		}, check: func(t *testing.T, ref []outcome) {
			for i := 0; i < 8; i += 2 {
				if ref[i].text(false) != ref[i+1].text(false) {
					t.Errorf("statement %d differs from its cv() form:\n%s", i, firstDiff(ref[i+1].text(false), ref[i].text(false)))
				}
			}
			f := func(x float64) string { return "F" + strconv.FormatUint(math.Float64bits(x), 16) }
			c := func(i, row int) string { return strings.Fields(ref[i].rows[row])[3] }
			for _, x := range []struct {
				what, got, want string
			}{
				{"c[*] = s[t - 1] at t = 1", c(0, 0), "N"},
				{"c[*] = s[t - 1] at t = 2", c(0, 1), f(10)},
				{"c[*] = s[t - 1] at t = 3", c(0, 2), f(20)},
				{"c[*] = s[t - 1] + 0 * sum(s)[*] at t = 3", c(2, 2), f(20)},
				{"c[t > 1] = s[t - 1] at t = 2", c(4, 1), f(10)},
				{"c[2] = s[t - 1] + 100 * t", c(6, 1), f(210)},
				{"c[*] = s[g] in partition 2", c(8, 4), f(50)},
				{"c[3] = s[g + 1] + 1 in partition 1", c(9, 2), f(21)},
				{"c[t < s[t]] = 1: s[t] reads the candidate row", strings.Join(ref[10].rows, ","), " I1 I5 I1, I2 I1 I0, I3 I9 I1"},
			} {
				if x.got != x.want {
					t.Errorf("%s: %s, want %s", x.what, x.got, x.want)
				}
			}
		}},
		// GROUP BY keys as packed words: one case per key kind and their
		// mix, an overflowing key, merge-sensitive sums, MIN/MAX ties across
		// 16-row morsels, empty input with and without keys, and a GROUP BY
		// above a join. The check pins the first-seen spelling of -0.0.
		diffCase{name: "group-words", fixture: groupWordsDB, configs: "exec plan b1 b3 b16 move served fuzz", script: []string{
			`SELECT r, SUM(v), COUNT(y), COUNT(*), AVG(v), MIN(z), MAX(z), SLOPE(y, w) FROM gw GROUP BY r`,
			`SELECT b, SUM(v), MIN(w), MAX(w) FROM gw GROUP BY b`,
			`SELECT n, SUM(v), MIN(r), MAX(r) FROM gw GROUP BY n`,
			`SELECT wi, SUM(v), COUNT(w) FROM gw GROUP BY wi`,
			`SELECT f, SUM(v), COUNT(*), MIN(z), MAX(z) FROM gw GROUP BY f`,
			`SELECT r, b, n, SUM(v), AVG(y) FROM gw GROUP BY r, b, n`,
			`SELECT r, b, n, f, SUM(v), MIN(z), SLOPE(y, w) FROM gw GROUP BY r, b, n, f`,
			`SELECT x1, x2, x3, SUM(v), COUNT(*) FROM gw GROUP BY x1, x2, x3`,
			`SELECT x1, x2, x3, r, wi, SUM(v), MAX(z) FROM gw WHERE id % 3 <> 1 GROUP BY x1, x2, x3, r, wi`,
			`SELECT n, f, SUM(v), MIN(z), MAX(z) FROM gw WHERE w IS NULL OR w > 1 GROUP BY n, f`,
			`SELECT SUM(v), COUNT(*), MIN(z), AVG(y), SLOPE(y, w) FROM gw`,
			`SELECT SUM(v), COUNT(*), MIN(z) FROM gw WHERE w > 1000`,
			`SELECT r, SUM(v), COUNT(*) FROM gw WHERE w > 1000 GROUP BY r`,
			`SELECT d.grp, g.b, SUM(g.v), COUNT(*), MAX(g.z) FROM gw g JOIN gd d ON g.r = d.r GROUP BY d.grp, g.b`,
		}, check: func(t *testing.T, ref []outcome) {
			negZero := "F" + strconv.FormatUint(math.Float64bits(math.Copysign(0, -1)), 16)
			for _, r := range ref[4].rows {
				if strings.HasPrefix(r, " F0 ") {
					t.Errorf("f = 0 grouped under 0.0 (%q), want -0.0, its first-seen spelling", r)
				}
			}
			if !strings.HasPrefix(ref[4].rows[0], " "+negZero+" ") {
				t.Errorf("first group %q, want f = -0.0", ref[4].rows[0])
			}
			if n := len(ref[12].rows); n != 0 {
				t.Errorf("GROUP BY over empty input returned %d rows", n)
			}
			if n := len(ref[11].rows); n != 1 {
				t.Errorf("a global aggregate over empty input returned %d rows, want 1", n)
			}
		}},
		// A hash join under each consumer: the batch group-by on a
		// dictionary, INT, FLOAT and computed (non-dictionary) string key,
		// the row-path group-by, filters, a computed projection, sorts, a
		// window, DISTINCT, UNION ALL, LIMIT, a spreadsheet, a join over a
		// join, and LEFT and RIGHT joins whose NULL extension meets a
		// residual or not. Positions or rows, the bytes are the row path's.
		diffCase{name: "join-consumers", fixture: joinConsumersDB, configs: "exec plan served fuzz", script: []string{
			`SELECT d.grp, SUM(f.v), COUNT(*), MIN(f.f), MAX(d.x) FROM jf f JOIN jd d ON f.k = d.k GROUP BY d.grp`,
			`SELECT f.n, d.w, SUM(f.v), COUNT(f.f) FROM jf f JOIN jd d ON f.k = d.k GROUP BY f.n, d.w`,
			`SELECT f.f, SUM(f.v), COUNT(*), AVG(d.x) FROM jf f JOIN jd d ON f.k = d.k GROUP BY f.f`,
			`SELECT q.kk, SUM(q.v), COUNT(*) FROM (SELECT f.k || '/' || d.grp AS kk, f.v * d.w AS v FROM jf f JOIN jd d ON f.k = d.k) q GROUP BY q.kk`,
			`SELECT f.n % 3, SUM(f.v), COUNT(*) FROM jf f JOIN jd d ON f.k = d.k GROUP BY f.n % 3`,
			`SELECT f.id, d.w FROM jf f JOIN jd d ON f.k = d.k WHERE d.w > 40 AND f.v > 0.15`,
			`SELECT f.id, d.w FROM jf f JOIN jd d ON f.k = d.k WHERE f.v * d.w > 5 OR d.grp IS NULL`,
			`SELECT f.id, f.v * 2 + d.w, d.grp || '!', f.f FROM jf f JOIN jd d ON f.k = d.k`,
			`SELECT f.id, d.grp, f.v, d.w FROM jf f JOIN jd d ON f.k = d.k ORDER BY d.grp, f.v DESC, f.id, d.w`,
			`SELECT f.id, d.w, f.v FROM jf f JOIN jd d ON f.k = d.k ORDER BY f.v * d.w, f.id, d.w`,
			`SELECT f.id, d.w, SUM(f.v) OVER (PARTITION BY d.grp ORDER BY f.id, d.w) FROM jf f JOIN jd d ON f.k = d.k ORDER BY f.id, d.w`,
			`SELECT DISTINCT d.grp, f.n FROM jf f JOIN jd d ON f.k = d.k`,
			`SELECT f.id, d.w FROM jf f JOIN jd d ON f.k = d.k UNION ALL SELECT f.id, d.w FROM jf f LEFT JOIN jd d ON f.k = d.k AND d.w > 50`,
			`SELECT f.id, d.k, d.w FROM jf f JOIN jd d ON f.k = d.k ORDER BY f.id DESC, d.w LIMIT 7`,
			`SELECT COUNT(*) FROM (SELECT f.id FROM jf f JOIN jd d ON f.k = d.k LIMIT 5) q`,
			`SELECT id, w, v, u FROM (SELECT f.id AS id, d.w AS w, f.v AS v FROM jf f JOIN jd d ON f.k = d.k) q
			 SPREADSHEET DBY (id, w) MEA (v, 0 u) ( UPDATE u[*, *] = v[cv(id), cv(w)] * 2 + v[cv(id) - 8, cv(w)] ) ORDER BY id, w`,
			`SELECT f.id, d.w, e.w FROM jf f JOIN jd d ON f.k = d.k JOIN jd e ON d.grp = e.grp AND d.w < e.w`,
			`SELECT f.id, d.w FROM jf f LEFT JOIN jd d ON f.k = d.k`,
			`SELECT f.id, d.w FROM jf f LEFT JOIN jd d ON f.k = d.k AND f.v < d.w`,
			`SELECT f.id, d.k, d.w FROM jf f RIGHT JOIN jd d ON f.k = d.k`,
			`SELECT f.id, d.k, d.w FROM jf f RIGHT JOIN jd d ON f.k = d.k AND f.n > 0`,
			`SELECT d.grp, COUNT(f.id), SUM(f.v) FROM jf f RIGHT JOIN jd d ON f.k = d.k AND f.n > 0 GROUP BY d.grp`,
		}, check: func(t *testing.T, ref []outcome) {
			for i, o := range ref {
				if o.err != "" || len(o.rows) == 0 {
					t.Errorf("statement %d: error %q, %d rows; want rows", i, o.err, len(o.rows))
				}
			}
		}},
		// Every consumer above a spreadsheet, over its image, its rows kept
		// beside a partial image, or its rows alone: a filter, GROUP BY on PBY
		// and on DBY keys with aggregates over measures, a sort, a window,
		// DISTINCT, UNION ALL, LIMIT, a hash join, a computed projection and
		// IN (SELECT ...), over measures that keep one kind (img), and over a
		// measure mixing INT and FLOAT, an all-NULL one and a string one
		// (mix); then RETURN UPDATED ROWS, UPSERT of a DBY value absent from
		// the input's dictionary, a reference sheet, and a sheet without PBY
		// whose independent dimension the promote configuration duplicates
		// into the distribution key (the sheet drops that leading column).
		// Spilling, reused and served sessions run it too; the bytes are the
		// row path's.
		// CTE bodies and the inputs of windows are optimized like derived
		// tables: a CTE comma join (keys extracted, a hash join), a CTE
		// whose body filters a sheet (the predicate pushed into it), a CTE
		// over a sheet filtered outside the CTE, a sheet under a window, and
		// a CTE body's ORDER BY … LIMIT (a top-k). plan-off runs them
		// unoptimized; its sheets may choose other buckets over their larger
		// inputs, so it compares rows as multisets, as the plan group does.
		diffCase{name: "cte-bodies", configs: "exec plan cache served",
			fixture: func(t testing.TB, db *sqlsheet.DB) { joinConsumersDB(t, db); sheetConsumersDB(t, db) },
			script: []string{
				`WITH v AS (SELECT f.id, f.n, d.w FROM jf f, jd d WHERE f.k = d.k) SELECT COUNT(*), SUM(id * w), MIN(n), MAX(n) FROM v`,
				`WITH v AS (SELECT f.id, d.grp, d.w FROM jf f, jd d WHERE f.k = d.k AND f.n > 0) SELECT id, grp, w FROM v WHERE w > 40`,
				`WITH v AS (SELECT c, p, t, u FROM (SELECT c, p, t, s, u FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s, 0 u)
					(UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + s[cv(p), cv(t) - 1])) x WHERE c = 'b' AND t > 2003)
					SELECT c, p, t, u FROM v`,
				`WITH v AS (SELECT c, p, t, s, u FROM sf SPREADSHEET PBY (c) DBY (p, t) MEA (s, 0 u)
					(UPDATE u[*, *] = s[cv(p), cv(t)] * 2))
					SELECT p, t, u FROM v WHERE c = 'a' AND p <> 'cam'`,
				`SELECT c, p, t, u, SUM(u) OVER (PARTITION BY p ORDER BY t) FROM (SELECT c, p, t, s, u FROM sf
					SPREADSHEET PBY (c) DBY (p, t) MEA (s, 0 u) (UPDATE u[*, *] = s[cv(p), cv(t)] + 1)) v
					WHERE c = 'c' ORDER BY p, t`,
				`WITH v AS (SELECT f.id, d.w FROM jf f, jd d WHERE f.k = d.k ORDER BY f.id DESC, d.w LIMIT 7) SELECT id, w FROM v`,
			}, check: returnsRows},
		diffCase{name: "sheet-consumers", fixture: sheetConsumersDB, configs: "exec plan served fuzz b3 spill3 cache promote", script: sheetConsumerScript(),
			check: returnsRows},
		// Columnar frames: measures in typed vectors per bucket, keys read
		// from the input. The spill groups keep the row store, so they check
		// the vectors from outside. An INT default every cell of which a rule
		// turns FLOAT, and one left mixed; UPSERTed cells a later rule reads,
		// under RETURN UPDATED ROWS; ITERATE, a self-reading rule and a
		// two-rule cycle (per cell); input columns with no image (CASEs
		// mixing INT and FLOAT, as a measure and as a DBY key); an empty PBY
		// the plan group promotes; and the cache group's reused structures.
		diffCase{name: "sheet-frames", fixture: sheetConsumersDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz",
			script: sheetFramesScript(), check: returnsRows},
		// One kind per measure: an INT default a rule assigns FLOAT on some
		// cells under a pushed predicate, read by a filter above (the
		// unassigned cells read 0.0); an INT table measure assigned by /; a
		// CASE of INT and FLOAT arms; UPSERT and ITERATE; measures whose
		// kind compile time cannot see (scalar subqueries) pinned, widened
		// and refused at run time; and a STRING measure assigned FLOAT,
		// refused at compile time with one text on every path.
		diffCase{name: "measure-kinds", fixture: measureKindsDB, configs: "exec plan cache b1 b3 b16 spill3 move served fuzz",
			script: []string{
				`SELECT c, t, p, s, sh FROM (SELECT c, t, p, s, sh FROM mk
					SPREADSHEET PBY (c, t) DBY (p) MEA (s, 0 sh) RULES UPDATE (sh['tv'] = s['tv'] / s['dvd'])) v
					WHERE p IN ('tv', 'vcr') ORDER BY c, t, p`,
				`SELECT c, t, p, s, sh FROM (SELECT c, t, p, s, sh FROM mk
					SPREADSHEET PBY (c, t) DBY (p) MEA (s, 0 sh) RULES UPDATE (sh[*] = s[cv(p)] / s['tv'])) v
					WHERE p IN ('tv', 'vcr') AND sh > 0.5 ORDER BY c, t, p`,
				`SELECT c, p, t, n FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (n)
					RULES UPDATE (n[t > 2004] = n[cv(t) - 1] / 2) ORDER BY c, p, t`,
				`SELECT p, SUM(u), MIN(u), COUNT(*) FROM (SELECT c, p, t, s, u FROM mk SPREADSHEET PBY (c) DBY (p, t) MEA (s, 0 u)
					(UPDATE u[*, *] = CASE WHEN t > 2005 THEN 1 ELSE 2.5 END)) v GROUP BY p ORDER BY p`,
				`SELECT c, p, t, n, s FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (n, s)
					RULES UPSERT (n[2020] = n[2004] * 0.5, n[2021] = n[2020] + 1, s[2021] = n[2021] * 2) ORDER BY c, p, t`,
				`SELECT c, p, t, n, b FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (n, 0 b) ITERATE (3)
					(UPDATE b[2005] = b[2005] / 2 + n[2005], UPDATE n[t < 2003] = n[cv(t) + 1] + 1) ORDER BY c, p, t`,
				`SELECT c, p, t, q FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (NULL q)
					(UPDATE q[2001] = (SELECT MAX(t) FROM mk), UPDATE q[2003] = (SELECT MAX(s) FROM mk)) ORDER BY c, p, t`,
				`SELECT c, p, t, q FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (0 q)
					(UPDATE q[2001] = (SELECT MAX(name) FROM mk)) ORDER BY c, p, t`,
				`SELECT c, p, t, s, name FROM mk SPREADSHEET PBY (c, p) DBY (t) MEA (s, name)
					(UPDATE name[2001] = s[2001] * 2) ORDER BY c, p, t`,
			}, check: func(t *testing.T, ref []outcome) {
				for i, want := range map[int]string{
					7: "spreadsheet: measure q cannot hold both INT and STRING values",
					8: "spreadsheet: measure name cannot hold both FLOAT and STRING values",
				} {
					if ref[i].err != want {
						t.Errorf("statement %d: error %q, want %q", i, ref[i].err, want)
					}
				}
				for i := range 7 {
					if ref[i].err != "" || len(ref[i].rows) == 0 {
						t.Errorf("statement %d: error %q, %d rows; want rows", i, ref[i].err, len(ref[i].rows))
					}
				}
				// The unassigned cells of a FLOAT measure read 0.0; the
				// subqueries' INT and FLOAT values leave one FLOAT measure.
				for _, c := range []struct {
					i         int
					row, last string
				}{{0, `S"vcr"`, "F0"}, {6, "I2001", "F"}, {6, "I2003", "F"}} {
					for _, r := range ref[c.i].rows {
						if f := strings.Fields(r); strings.Contains(r, c.row) && !strings.HasPrefix(f[len(f)-1], c.last) {
							t.Errorf("statement %d: row %s, want its last value %s…", c.i, r, c.last)
						}
					}
				}
			}},
		// A NaN key matches nothing on the hashed equality paths, as = says:
		// the hash join (plain, two-key and computed keys, every join type)
		// and IN over a subquery agree with the nested loop and the linear
		// IN scan of push-subquery. -0.0 still meets 0.0, 2.0 meets 2.
		diffCase{name: "nan-keys", fixture: nanKeysDB, configs: "exec plan served", script: []string{
			`SELECT na.x, nb.y FROM na JOIN nb ON na.k = nb.k ORDER BY na.x, nb.y`,
			`SELECT na.x, nb.y FROM na LEFT JOIN nb ON na.k = nb.k ORDER BY na.x, nb.y`,
			`SELECT na.x, nb.y FROM na RIGHT JOIN nb ON na.k = nb.k ORDER BY nb.y, na.x`,
			`SELECT na.x, nb.y FROM na JOIN nb ON na.k * 1 = nb.k AND na.j = nb.j ORDER BY na.x, nb.y`,
			`SELECT na.x, nb.y FROM na JOIN nb ON na.j = nb.j AND na.k = nb.k AND na.x < nb.y ORDER BY na.x, nb.y`,
			`SELECT x FROM na WHERE k IN (SELECT k FROM nb) ORDER BY x`,
			`SELECT x, k IN (SELECT k FROM nb WHERE k IS NOT NULL), k NOT IN (SELECT k FROM nb) FROM na ORDER BY x`,
		}, check: func(t *testing.T, ref []outcome) {
			xs := func(i int) string {
				var out []string
				for _, r := range ref[i].rows {
					out = append(out, strings.Fields(r)[0])
				}
				return strings.Join(out, " ")
			}
			for _, x := range []struct {
				what, got, want string
			}{
				{"inner join", xs(0), "I2 I3 I4 I6 I7"},
				{"left join", xs(1), "I1 I2 I3 I4 I5 I6 I7"},
				{"computed key", xs(3), "I2 I3 I4 I6"},
				{"IN", xs(5), "I2 I3 I4 I6 I7"},
				{"NaN IN a list without NULL", ref[6].rows[0], " I1 B0 N"},
			} {
				if x.got != x.want {
					t.Errorf("%s: %s, want %s", x.what, x.got, x.want)
				}
			}
		}},
		// Statements overwriting their own input measure, three runs each
		// through the structure cache: a shared row is written in place only
		// after its first write, and none of that may show. The first is
		// per cell (a self-read); the second batches when it may, under
		// UPSERT, with a second measure written by a later rule.
		diffCase{name: "in-place", fixture: inPlaceDB, configs: "exec b3 spill3", runs: 3, script: []string{
			baseF, baseG,
			`SELECT r, p, t, s FROM f SPREADSHEET PBY(r) DBY(p, t) MEA(s) SEQUENTIAL ORDER ( s[*, *] = s[cv(p), cv(t)] * 2 )` + byRPT,
			`SELECT r, p, t, s, v, x, y FROM g SPREADSHEET PBY(r) DBY(p, t) MEA(s, v, x, y)
			 RULES UPSERT ( s[*, *] = v[cv(p), cv(t)] * 2, x[*, *] = s[cv(p), cv(t)] + v[cv(p), cv(t)],
			                y['new', 2001] = v['dvd', 2001] * 2 )` + byRPT,
			baseF, baseG,
		}, check: func(t *testing.T, ref []outcome) {
			for i := 0; i < 2; i++ {
				if ref[i].text(false) != ref[i+4].text(false) {
					t.Errorf("a spreadsheet write reached base table %d", i)
				}
				if ref[i].text(false) == ref[i+2].text(false) {
					t.Errorf("statement %d did not overwrite its input measure", i+2)
				}
			}
		}},
	)
}
