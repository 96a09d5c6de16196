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

		// plan: optimizer transforms off or swapped, single scan and range probes off.
		{name: "plan-off", group: "plan", ref: "row", unordered: true, cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Plan = plan.Ablation{DisableSheetPrune: true, DisableSheetPush: true, DisableFilterPushdown: true}
		})},
		{name: "probe-off", group: "plan", ref: "row", cfg: grid(1, 0, 0, func(c *sqlsheet.Config) {
			c.Ablate.Engine.DisableSingleScan, c.Ablate.Engine.DisableRangeProbe = true, true
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
	return tr
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

// allNullDB: a column entirely NULL, and an empty table.
func allNullDB(t testing.TB, db *sqlsheet.DB) {
	db.MustExec(`CREATE TABLE nt (a INT, z FLOAT, c TEXT)`)
	insert(t, db, "nt", rowsOf(100, func(i int) []any { return []any{i, nil, fmt.Sprintf("s%d", i%5)} })...)
	db.MustExec(`CREATE TABLE empty (a INT, b TEXT)`)
}

// mixedDB: an untyped table whose columns mix every kind (boxed images).
func mixedDB(t testing.TB, db *sqlsheet.DB) {
	if err := db.CreateTable("mixed", sqlsheet.Column{Name: "x"}, sqlsheet.Column{Name: "y"}); err != nil {
		t.Fatal(err)
	}
	vals := []any{1, 2.5, "a", true, nil, 7, "b", 3.0, false, 40, "a", nil}
	insert(t, db, "mixed", rowsOf(60, func(i int) []any { return []any{vals[i%len(vals)], i % 7} })...)
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
		// The arithmetic ones fail at the first x that is not a number, on
		// every path, and leave the table untouched.
		diffCase{name: "mixed-kinds", fixture: mixedDB, configs: "exec served", script: []string{
			`UPDATE mixed SET y = 'str' WHERE x > 3`,
			`DELETE FROM mixed WHERE x = 'a'`,
			`UPDATE mixed SET x = 2.5 WHERE y IS NULL OR x IS NULL`,
			`DELETE FROM mixed WHERE x < y`,
			`UPDATE mixed SET y = x WHERE y = 3`,
			`UPDATE mixed SET y = 0 WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x + 1 > 2`,
			`DELETE FROM mixed WHERE x IN (1, 'b', TRUE)`,
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
				`DELETE FROM big WHERE u LIKE 'u00001%'`,
				`UPDATE big SET u = 'u000000' WHERE u > 'u065000'`,
				`DELETE FROM big WHERE u IS NULL`,
				`DELETE FROM big WHERE u = 'dup' OR u IN ('u000400!', 'u065001')`,
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
