// EXPLAIN's vectorized= notes. That the vectorized paths return the row
// path's bytes is the differential harness's (differential_test.go).
package sqlsheet_test

import (
	"slices"
	"strings"
	"testing"

	"sqlsheet"
	"sqlsheet/internal/core"
	"sqlsheet/internal/types"
)

// TestExplainVectorizedAnnotation checks EXPLAIN advertises kernel
// compilation and that the ablation knob turns the annotation off.
func TestExplainVectorizedAnnotation(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE e (a INT, c TEXT)`)
	db.MustExec(`INSERT INTO e VALUES (1, 'x'), (2, 'y')`)

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(`SELECT a FROM e WHERE a > 1 AND c LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=yes") {
		t.Errorf("supported predicate lacks vectorized=yes:\n%s", out)
	}
	// Arithmetic predicates have no kernel: annotation must say no.
	out, err = db.Explain(`SELECT a FROM e WHERE a % 2 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no") {
		t.Errorf("unsupported predicate lacks vectorized=no:\n%s", out)
	}
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedExec: true}}})
	out, err = db.Explain(`SELECT a FROM e WHERE a > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "vectorized=yes") {
		t.Errorf("ablated plan still advertises vectorized=yes:\n%s", out)
	}
}

// TestExplainVectorizedRules checks EXPLAIN's per-rule vectorized= notes:
// batchable formulas advertise yes, fallbacks name their reason, and the
// ablation knob rewrites yes to no(disabled) without masking real reasons.
func TestExplainVectorizedRules(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE fe (r TEXT, p TEXT, t INT, s FLOAT, u FLOAT)`)
	db.MustExec(`INSERT INTO fe VALUES ('w','tv',2000,1,0), ('w','tv',2001,2,0)`)
	const q = `SELECT r, p, t, s, u FROM fe SPREADSHEET PBY(r) DBY (p, t) MEA (s, u)
		( UPDATE u[*, *] = s[cv(p), cv(t)] * 0.5,
		  UPDATE u[*, t > 2000] = avg(s)[cv(p), 1990 <= t <= 1999],
		  UPDATE s['tv', 2001] = s['tv', 2000] * 2 )`

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"vectorized=yes", "vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN lacks %s:\n%s", want, out)
		}
	}
	it, err := db.Explain(`SELECT t, s FROM fe SPREADSHEET DBY (t) MEA (s) ITERATE (2) ( s[2000] = s[2000] / 2 )`)
	if err != nil {
		t.Fatal(err)
	}
	// ITERATE is no gate of its own: this rule reads the cell it writes, a
	// cycle, which every pass runs per cell.
	if !strings.Contains(it, "vectorized=no(cyclic)") {
		t.Errorf("self-reading ITERATE rule lacks vectorized=no(cyclic):\n%s", it)
	}

	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{DisableVectorizedRules: true}}})
	out, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vectorized=no(disabled)") {
		t.Errorf("ablated rule plan lacks vectorized=no(disabled):\n%s", out)
	}
	for _, want := range []string{"vectorized=no(cv-qualifier)", "vectorized=no(self-read)"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablated EXPLAIN masks real fallback %s:\n%s", want, out)
		}
	}
}

// TestExplainBucketRulesBatched: every rule of the bucket-batch case's first
// four statements — nested, sheet-qualified and PBY-keyed reference reads —
// batches.
func TestExplainBucketRulesBatched(t *testing.T) {
	cases := diffCorpus()
	c := cases[slices.IndexFunc(cases, func(c diffCase) bool { return c.name == "bucket-batch" })]
	db := fixtureDB(t, c.fixture)
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	for _, q := range c.script[:4] {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "vectorized=yes") || strings.Contains(plan, "vectorized=no") {
			t.Errorf("want every rule batched:\n%s", plan)
		}
	}
}

// TestExplainGroupByKeys pins the group-by line of EXPLAIN ANALYZE: how the
// keys were held — packed words, interned words when three INT columns
// spanning 15 million values each overflow a word, or the row path's key
// bytes for a key that is not a plain column — how many groups came out,
// and how many partials merged (10 rows in 4-row morsels: 3).
func TestExplainGroupByKeys(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE gk (r TEXT, x INT, y INT, z INT, s FLOAT)`)
	db.MustExec(`INSERT INTO gk VALUES ('w',0,0,0,1), ('w',15000000,0,0,2), ('e',0,15000000,0,3), ('e',0,0,15000000,4),
		('w',15000000,15000000,15000000,5), ('e',0,0,0,6), ('n',1,1,1,7), ('n',2,2,2,8), ('w',3,3,3,9), (NULL,4,4,4,10)`)
	cfg := sqlsheet.Config{Workers: 2}
	cfg.Ablate.DisablePlanCache, cfg.Ablate.Exec.MorselSize = true, 4
	db.Configure(cfg)
	for _, c := range []struct{ q, want string }{
		{`SELECT r, SUM(s), COUNT(*) FROM gk GROUP BY r`, "keys=packed groups=4 partials=3"},
		{`SELECT x, y, z, SUM(s) FROM gk GROUP BY x, y, z`, "keys=bytes(overflow) groups=9 partials=3"},
		{`SELECT r || '!', MAX(s) FROM gk GROUP BY r || '!'`, "keys=row groups=4 partials=3"},
		{`SELECT SUM(s) FROM gk WHERE s > 100`, "keys=packed groups=1 partials=1"},
	} {
		out, err := db.ExplainAnalyze(c.q)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "group-by ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.want) {
			t.Errorf("%s: group-by line %q, want it to end in %q:\n%s", c.q, line, c.want, out)
		}
	}
}

// TestExplainJoinKeys pins the hash join's two lines of EXPLAIN ANALYZE:
// the build's key words — packed, or interned when three INT columns
// spanning 15 million values each overflow a word — with its distinct keys,
// and the probe's matches and output, for a plain key, the overflowing key,
// a computed key (a NULL r keys nothing) and a join whose sides are both
// below the morsel threshold, which still prints both lines, with no
// morsels. A join whose sides carry columnar images emits positions; the
// same join under a batch group-by too, and under DisableVectorizedExec it
// builds rows.
func TestExplainJoinKeys(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE ja (r TEXT, x INT, y INT, z INT, s FLOAT)`)
	db.MustExec(`CREATE TABLE jb (r TEXT, x INT, y INT, z INT, s FLOAT)`)
	db.MustExec(`INSERT INTO ja VALUES ('w',0,0,0,1), ('w',15000000,0,0,2), ('e',0,15000000,0,3), ('e',0,0,15000000,4),
		('w',15000000,15000000,15000000,5), ('e',0,0,0,6), ('n',1,1,1,7), ('n',2,2,2,8), ('w',3,3,3,9), (NULL,4,4,4,10)`)
	db.MustExec(`INSERT INTO jb VALUES ('w',0,0,0,1), ('w',15000000,0,0,2), ('e',0,15000000,0,3), ('n',15000000,15000000,15000000,4),
		(NULL,1,1,1,5), ('e',2,2,2,6), ('x',0,0,0,7), ('w',3,3,3,8)`)
	const rollup = `SELECT jb.r, SUM(ja.s), COUNT(*) FROM ja JOIN jb ON ja.x = jb.x GROUP BY jb.r`
	for _, c := range []struct {
		q, build, probe string
		serial, novec   bool
	}{
		{`SELECT ja.s, jb.s FROM ja JOIN jb ON ja.r = jb.r`, "keys=packed distinct=4", "matches=20 out=positions", false, false},
		{`SELECT ja.s, jb.s FROM ja JOIN jb ON ja.x = jb.x AND ja.y = jb.y AND ja.z = jb.z`, "keys=bytes(overflow) distinct=7", "matches=10 out=positions", false, false},
		{`SELECT ja.s, jb.s FROM ja JOIN jb ON ja.r || '!' = jb.r || '!'`, "keys=packed distinct=4", "matches=20 out=positions", false, false},
		{`SELECT ja.s, jb.s FROM ja JOIN jb ON ja.r = jb.r WHERE ja.s < 4 AND jb.s < 4`, "keys=packed distinct=2", "matches=5 out=positions", true, false},
		{rollup, "keys=packed distinct=5", "matches=19 out=positions", false, false},
		{rollup, "keys=packed distinct=5", "matches=19 out=rows", false, true},
	} {
		cfg := sqlsheet.Config{Workers: 2}
		cfg.Ablate.DisablePlanCache, cfg.Ablate.Exec.MorselSize = true, 4
		cfg.Ablate.Engine.DisableVectorizedExec = c.novec
		db.Configure(cfg)
		out, err := db.ExplainAnalyze(c.q)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[string]string{}
		for _, l := range strings.Split(out, "\n") {
			if op, _, ok := strings.Cut(l, " "); ok && (op == "join-build" || op == "join-probe") {
				lines[op] = l
			}
		}
		for op, want := range map[string]string{"join-build": c.build, "join-probe": c.probe} {
			l := lines[op]
			if !strings.HasSuffix(l, "  "+want) {
				t.Errorf("%s: %s line %q, want it to end in %q:\n%s", c.q, op, l, want, out)
			}
			if f := strings.Fields(l); c.serial && (len(f) < 3 || f[2] != "0") {
				t.Errorf("%s: %s line %q, want no morsels", c.q, op, l)
			}
		}
	}
}

// TestExplainSpreadsheetKeys pins the spreadsheet line of EXPLAIN ANALYZE:
// how the structure keyed its cells — packed words, or byte keys when three
// INT dimensions spanning 15 million values each overflow a word — and how
// many cell reads probed and how many read the target cell's own column,
// then the form of the output (an image: no rule inserted, no measure mixes
// kinds). At VecMinRows 1 the rule batches: the two self-reads (s[cv(p), cv(t)],
// ten cells each) are aliased, the per-frame constant s['tv', 2000] probes
// once per frame, and the data-dependent s[cv(p), cv(t) - 1] ten times.
func TestExplainSpreadsheetKeys(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE sk (r TEXT, p TEXT, t INT, x INT, y INT, z INT, s FLOAT)`)
	db.MustExec(`INSERT INTO sk VALUES ('w','tv',2000,0,0,0,1), ('w','tv',2001,15000000,0,0,2), ('w','dvd',2000,0,15000000,0,3),
		('w','dvd',2001,0,0,15000000,4), ('w','vcr',2002,15000000,15000000,15000000,5),
		('e','tv',2000,0,0,0,6), ('e','tv',2001,1,1,1,7), ('e','dvd',2000,2,2,2,8), ('e','dvd',2001,3,3,3,9), ('e','vcr',2002,4,4,4,10)`)
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true, Engine: core.Ablation{VecMinRows: 1}}})
	for _, c := range []struct{ q, want string }{
		{`SELECT r, p, t, s, u FROM sk SPREADSHEET PBY(r) DBY (p, t) MEA (s, 0 u)
			( UPDATE u[*, *] = s[cv(p), cv(t)] * 2 + s[cv(p), cv(t)] + s['tv', 2000] + s[cv(p), cv(t) - 1] )`,
			"keys=packed probes=12 aliased=20 out=image"},
		{`SELECT r, x, y, z, s, u FROM sk SPREADSHEET PBY(r) DBY (x, y, z) MEA (s, 0 u)
			( UPDATE u[*, *, *] = s[cv(x), cv(y), cv(z)] + s[0, 0, 0] )`,
			"keys=bytes(overflow) probes=2 aliased=10 out=image"},
	} {
		out, err := db.ExplainAnalyze(c.q)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "spreadsheet ") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.want) {
			t.Errorf("spreadsheet line %q, want it to end in %q:\n%s", line, c.want, out)
		}
	}
}

// TestExplainSheetOutput pins the form of the spreadsheet's output on its
// EXPLAIN ANALYZE line, and the operators above it that read the image. A
// sheet whose rules insert nothing emits an image (out=image), and the
// GROUP BY above it packs its keys from the gathered key columns; so does
// one whose INT default a rule assigns FLOAT on some cells only: the
// measure is FLOAT on every cell (EXPLAIN's kinds line), and the filter
// above it (the rule reads a cell the filter drops, so it cannot be pushed)
// runs over the image; an UPSERT inserts cells with no input position
// (out=rows(inserted)).
// Under DisableVectorizedExec the input carries no image
// (out=rows(no-input-image)) and the GROUP BY keys rows; a structure reused
// from the cache has no input at all (out=rows(reused)).
func TestExplainSheetOutput(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE so (c TEXT, t INT, p TEXT, s FLOAT)`)
	db.MustExec(`INSERT INTO so VALUES ('a',1,'tv',1), ('a',1,'dvd',2), ('a',1,'vcr',3), ('a',2,'tv',4), ('a',2,'dvd',5),
		('b',1,'tv',6), ('b',1,'vcr',7), ('b',2,'tv',8), ('b',2,'dvd',9), ('b',2,'vcr',10)`)
	const (
		cube = `SELECT c, t, COUNT(*) AS n, MAX(sh) AS m, SUM(s) AS total FROM (SELECT c, t, p, s, sh FROM so
			SPREADSHEET PBY (c, t) DBY (p) MEA (s, 0 sh) RULES UPDATE (sh[*] = s[cv(p)] / s['tv'])) v
			GROUP BY c, t ORDER BY c, t`
		share = `SELECT c, t, p, s, sh FROM (SELECT c, t, p, s, sh FROM so
			SPREADSHEET PBY (c, t) DBY (p) MEA (s, 0 sh) RULES UPDATE (sh['tv'] = s['tv'] / s['dvd'])) v
			WHERE p IN ('tv', 'vcr') ORDER BY c, t, p`
		upsert = `SELECT c, t, p, s FROM so SPREADSHEET PBY (c, t) DBY (p) MEA (s)
			RULES UPSERT (s['new'] = s['tv'] * 2) ORDER BY c, t, p`
	)
	lines := func(db *sqlsheet.DB, q string) (map[string]string, string) {
		t.Helper()
		out, err := db.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		ls := map[string]string{}
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 0 {
				ls[f[0]] = l
			}
		}
		return ls, out
	}
	for _, c := range []struct {
		q        string
		disabled bool
		want     map[string]string // operator or plan node: its line's suffix ("" = only present)
	}{
		{cube, false, map[string]string{"spreadsheet": "out=image", "group-by": "keys=packed groups=4 partials=1"}},
		{share, false, map[string]string{"spreadsheet": "out=image", "filter": "", "Filter": "", "kinds:": "kinds: s FLOAT, sh FLOAT"}},
		{upsert, false, map[string]string{"spreadsheet": "out=rows(inserted)"}},
		{cube, true, map[string]string{"spreadsheet": "out=rows(no-input-image)", "group-by": "keys=row groups=4 partials=1"}},
		{share, true, map[string]string{"spreadsheet": "out=rows(no-input-image)", "filter": "", "Filter": ""}},
		{upsert, true, map[string]string{"spreadsheet": "out=rows(no-input-image)"}},
	} {
		db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true,
			Engine: core.Ablation{DisableVectorizedExec: c.disabled}}})
		ls, out := lines(db, c.q)
		for op, want := range c.want {
			if l, ok := ls[op]; !ok || !strings.HasSuffix(l, want) {
				t.Errorf("disabled=%v: %s line %q, want it to end in %q:\n%s", c.disabled, op, l, want, out)
			}
		}
	}
	// A reused structure: the first execution publishes it, the second
	// (its result not cached) evaluates a clone.
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisableResultCache: true}})
	if _, err := db.Query(cube); err != nil {
		t.Fatal(err)
	}
	if ls, out := lines(db, cube); !strings.HasSuffix(ls["spreadsheet"], "out=rows(reused)") {
		t.Errorf("reused: spreadsheet line %q, want it to end in out=rows(reused):\n%s", ls["spreadsheet"], out)
	}
}

// TestExplainS5ShareKinds pins the bench's s5_share shape over a small APB
// dataset: its INT defaults, which the share rules assign FLOAT ratios under
// the pushed product predicate, are FLOAT measures (EXPLAIN's kinds line),
// so the sheet hands the filter above it an image (out=image) instead of
// boxing every row to keep a few.
func TestExplainS5ShareKinds(t *testing.T) {
	db := sqlsheet.Open()
	if _, err := db.InstallAPB(sqlsheet.APBScale{Seed: 7, ProductFanout: []int{2, 2, 2, 2}, Channels: 2, Customers: 2, Years: 1, Density: 1}); err != nil {
		t.Fatal(err)
	}
	leaves, err := db.Query(`SELECT p FROM product_dt WHERE lvl = (SELECT MAX(lvl) FROM product_dt) ORDER BY p LIMIT 4`)
	if err != nil || len(leaves.Rows) < 4 {
		t.Fatalf("leaf products: %v, %v", leaves, err)
	}
	var prods []string
	for _, r := range leaves.Rows {
		prods = append(prods, "'"+r[0].S+"'")
	}
	q := `SELECT c, h, t, p, s, share_1, share_2, share_3 FROM (SELECT c, h, t, p, s, share_1, share_2, share_3 FROM apb_cube
		SPREADSHEET REFERENCE prod ON (SELECT p, parent1, parent2, parent3 FROM product_dt) DBY (p) MEA (parent1, parent2, parent3)
		PBY (c, h, t) DBY (p) MEA (s, 0 share_1, 0 share_2, 0 share_3)
		RULES UPDATE (F1: share_1[*] = s[cv(p)] / s[parent1[cv(p)]], F2: share_2[*] = s[cv(p)] / s[parent2[cv(p)]], F3: share_3[*] = s[cv(p)] / s[parent3[cv(p)]])) v
		WHERE p IN (` + strings.Join(prods, ", ") + `) ORDER BY c, h, t, p`
	db.Configure(sqlsheet.Config{Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
	out, err := db.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, " kinds: s FLOAT, share_1 FLOAT, share_2 FLOAT, share_3 FLOAT\n") {
		t.Errorf("no kinds line for the four FLOAT measures:\n%s", out)
	}
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) > 0 && f[0] == "spreadsheet" && !strings.HasSuffix(l, "out=image") {
			t.Errorf("spreadsheet line %q, want it to end in out=image:\n%s", l, out)
		}
	}
	res, err := db.Query(q)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("s5_share: %d rows, %v", len(res.Rows), err)
	}
	for _, r := range res.Rows {
		for _, v := range r[5:] {
			if !v.IsNull() && v.K != types.KindFloat {
				t.Fatalf("row %v: a share of kind %s", r, v.K)
			}
		}
	}
}

// TestExplainKindsOfSubqueriesAndWindows: the plan types a scalar subquery
// by its one column and a window function by its result, so a measure they
// feed is decided at compile time — a NULL measure two subqueries assign
// INT and FLOAT is FLOAT, a SUM over an INT column INT, a rank INT, an AVG
// FLOAT — and runs as decided.
func TestExplainKindsOfSubqueriesAndWindows(t *testing.T) {
	db := sqlsheet.Open()
	db.MustExec(`CREATE TABLE kw (p TEXT, t INT, s FLOAT)`)
	db.MustExec(`INSERT INTO kw VALUES ('a', 2000, 1.5), ('a', 2001, 2), ('b', 2000, 4)`)
	for _, c := range []struct{ q, kinds string }{
		{`SELECT p, t, q FROM kw SPREADSHEET PBY (p) DBY (t) MEA (NULL q)
			(q[2000] = (SELECT MAX(t) FROM kw), q[2001] = (SELECT MAX(s) FROM kw)) ORDER BY p, t`, "kinds: q FLOAT"},
		{`SELECT p, t, w, r, a FROM (SELECT p, t, SUM(t) OVER (PARTITION BY p) AS w,
			rank() OVER (PARTITION BY p ORDER BY t) AS r, AVG(t) OVER (PARTITION BY p) AS a FROM kw) v
			SPREADSHEET PBY (p) DBY (t) MEA (w, r, a) (w[2000] = r[2001] + 1) ORDER BY p, t`, "kinds: w INT, r INT, a FLOAT"},
	} {
		out, err := db.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, " "+c.kinds+"\n") {
			t.Errorf("no line %q:\n%s", c.kinds, out)
		}
		if _, err := db.Query(c.q); err != nil {
			t.Errorf("%s: %v", c.kinds, err)
		}
	}
}
