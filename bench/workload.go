package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"sqlsheet"
	"sqlsheet/internal/apb"
)

// rounds is the number of measured rounds per run; every end-to-end value
// is the median over them, so one round disturbed by the host cannot move
// a reported number.
const rounds = 5

// fullScale is the benchmark dataset: ~177k apb_cube rows, ~66k apb_fact
// rows, 1,161 products. Large enough that the columnar image of apb_cube
// does not fit L2 and rebuilding it after a write costs tens of
// milliseconds.
func fullScale(seed int64) sqlsheet.APBScale {
	return sqlsheet.APBScale{Seed: seed, ProductFanout: []int{2, 3, 3, 3, 4, 4},
		Channels: 4, Customers: 8, Years: 2, Density: 0.1}
}

// smallScale is the tier-1 smoke dataset (~5k cube rows).
func smallScale(seed int64) sqlsheet.APBScale {
	return sqlsheet.APBScale{Seed: seed, ProductFanout: []int{2, 2, 2, 2, 3, 3},
		Channels: 2, Customers: 2, Years: 1, Density: 0.2}
}

// datasetFor generates the dataset the server installs for scale, so the
// harness can draw literals from it.
func datasetFor(scale sqlsheet.APBScale) *apb.Data {
	return apb.Generate(apb.Config{Seed: scale.Seed, ProductFanout: scale.ProductFanout,
		Channels: scale.Channels, Customers: scale.Customers, Years: scale.Years, Density: scale.Density})
}

// shape is one statement template of a workload. share is its fixed share
// of the workload's statements; shapes are listed cheapest first, so the
// percentile rule (README) can be checked against the cumulative shares.
type shape struct {
	name  string
	share float64
	write bool
}

type stmt struct {
	sql   string
	shape int
}

// workload is one generated traffic mix: a warm-up sequence and `rounds`
// measured sequences per client, all fixed by (name, seed, size).
type workload struct {
	name    string
	clients int
	shapes  []shape
	warm    [][]stmt   // [client]
	seq     [][][]stmt // [round][client]
}

var workloadNames = []string{"dash_warm", "sheet_cold", "scan_cold", "ingest_mixed"}

// unitsPer10s is the number of generator units (cycles, shape sets or
// blocks) in one measured round when -seconds is 10, sized on the 2-core
// reference host so that a round takes about two seconds.
var unitsPer10s = map[string]int{
	"dash_warm":    240, // cycles of the 25 dashboard statements, per client
	"sheet_cold":   10,  // sets of one statement per shape
	"scan_cold":    22,  // sets of one statement per shape
	"ingest_mixed": 7,   // blocks of 32 statements, per client
}

// roundUnits converts -seconds into a fixed per-round unit count: the
// sequences are fixed-count, not fixed-duration, so statement counts, cache
// hits and WAL bytes repeat exactly for a given (seed, seconds).
func roundUnits(name string, seconds int) int {
	u := int(math.Round(float64(unitsPer10s[name]) * float64(seconds) / 10))
	if u < 1 {
		u = 1
	}
	return u
}

// rng is splitmix64: a fixed algorithm, so a seed names the same statement
// sequence on every Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, name string) *rng {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(pool []string) string { return pool[r.intn(len(pool))] }

// sample draws k distinct members of pool (all of it when k >= len).
func (r *rng) sample(pool []string, k int) []string {
	if k >= len(pool) {
		return append([]string(nil), pool...)
	}
	idx := make(map[int]bool, k)
	out := make([]string, 0, k)
	for len(out) < k {
		i := r.intn(len(pool))
		if !idx[i] {
			idx[i] = true
			out = append(out, pool[i])
		}
	}
	return out
}

// factor draws a fresh 4-decimal literal in [lo, lo+span): what makes every
// cold statement text unique, so neither the text cache, the plan cache nor
// the result cache can answer it.
func (r *rng) factor(lo, span float64) string {
	return fmt.Sprintf("%.4f", lo+span*float64(r.intn(10000))/10000)
}

// pools are the literal pools statements draw from, read off the dataset.
type pools struct {
	customers, channels, months []string
	leaves, level1, level2      []string
	level3                      []string
	leavesUnder                 map[string][]string // level-3 product -> its leaves
	caseTI                      string              // CASE t WHEN ... END mapping months to 1..n
	nMonths                     int
}

func newPools(d *apb.Data) *pools {
	p := &pools{months: d.Months, nMonths: len(d.Months)}
	for i := 0; i < d.Cfg.Customers; i++ {
		p.customers = append(p.customers, fmt.Sprintf("cust%02d", i))
	}
	for i := 0; i < d.Cfg.Channels; i++ {
		p.channels = append(p.channels, fmt.Sprintf("chan%d", i))
	}
	p.leaves = d.ProductsAtLevel(6)
	p.level1 = d.ProductsAtLevel(1)
	p.level2 = d.ProductsAtLevel(2)
	p.level3 = d.ProductsAtLevel(3)
	p.leavesUnder = map[string][]string{}
	for _, leaf := range p.leaves {
		// Codes are dotted paths: TOP.a.b.c.d.e.f sits under TOP.a.b.c.
		parent := strings.Join(strings.Split(leaf, ".")[:4], ".")
		p.leavesUnder[parent] = append(p.leavesUnder[parent], leaf)
	}
	var b strings.Builder
	b.WriteString("CASE t")
	for i, m := range d.Months {
		fmt.Fprintf(&b, " WHEN '%s' THEN %d", m, i+1)
	}
	b.WriteString(" ELSE 0 END")
	p.caseTI = b.String()
	return p
}

func quoteList(vals []string) string {
	return "'" + strings.Join(vals, "', '") + "'"
}

const prefClause = `REFERENCE pref ON (SELECT p, parent1, parent2, parent3 FROM product_dt) DBY (p) MEA (parent1, parent2, parent3)`

// --- the five spreadsheet shapes (sheet_cold, dash_warm, ingest reads) ---
//
// Each shape comes wide and narrow. sheet_cold runs the wide form: slices of
// thousands of cells, so building the access structure and evaluating the
// rules is the work. dash_warm runs the narrow form — the same clause over
// one (customer, channel) and a handful of products — because a dashboard
// statement must stay resident in the plan cache with its access structure
// and its result: the cache's 64 MiB budget is split over 8 shards, and an
// entry near a shard's 8 MiB evicts its neighbours.

// custChan is the literal predicate that narrows a statement to one
// (customer, channel).
func (p *pools) custChan(r *rng) string {
	return fmt.Sprintf(" AND c = '%s' AND h = '%s'", r.pick(p.customers), r.pick(p.channels))
}

// iteratePrev: ITERATE ... UNTIL with previous() over one customer's
// level-1 product — the per-cell fallback path. Already narrow.
func (p *pools) iteratePrev(r *rng) string {
	last := p.months[p.nMonths-1]
	return fmt.Sprintf(`SELECT c, h, t, s, bal FROM apb_cube WHERE c = '%s' AND p = '%s'
  SPREADSHEET PBY (c, h) DBY (t) MEA (s, 0 bal)
  ITERATE (30) UNTIL (abs(bal['%[3]s'] - previous(bal['%[3]s'])) < 0.001)
  (UPDATE bal['%[3]s'] = bal['%[3]s'] / 2 + s['%[3]s'] * %[4]s,
   UPDATE bal[t < '%[3]s'] = bal['%[3]s'] - s[cv(t)])
ORDER BY h, t`, r.pick(p.customers), r.pick(p.level1), last, r.factor(0.5, 0.4))
}

// forecastUpsert: FOR-loop UPSERT of six future periods from avg and slope
// over the last twelve months. Wide: every product of one (customer,
// channel); narrow: only the six forecast products.
func (p *pools) forecastUpsert(r *rng, narrow bool) string {
	n := p.nMonths
	prods := quoteList(r.sample(p.level2, 6))
	inner := p.custChan(r)
	if narrow {
		inner += " AND p IN (" + prods + ")"
	}
	return fmt.Sprintf(`SELECT c, h, p, ti, s FROM (SELECT c, h, p, s, %s AS ti FROM apb_cube WHERE s > 0%s) x
  SPREADSHEET RETURN UPDATED ROWS PBY (c, h) DBY (p, ti) MEA (s)
  RULES UPSERT (s[FOR p IN (%s), FOR ti FROM %d TO %d INCREMENT 1] = avg(s)[cv(p), %d <= ti <= %d] + slope(s, ti)[cv(p), %d <= ti <= %d] * (cv(ti) - %d) * %s)
ORDER BY p, ti`, p.caseTI, inner, prods, n+1, n+6, n-11, n, n-11, n, n-5, r.factor(0.9, 0.2))
}

// s5Share: the paper's query S5 — a reference spreadsheet on product_dt,
// three share-of-ancestor rules, and an outer predicate on 8 products that
// the optimizer pushes through the clause (Fig. 2's regime). Wide: 8 leaf
// products, one from each of 8 different level-3 subtrees so the 24
// ancestors the rules read never coincide and every instance costs the
// same, over every customer and channel. Narrow: 8 level-3 products (present
// in every month, so the reply has the same size for every seed) of one
// customer and channel.
func (p *pools) s5Share(r *rng, narrow bool) string {
	where, prods := "", r.sample(p.level3, 8)
	if narrow {
		where = p.custChan(r)
	} else {
		for i, sub := range prods {
			prods[i] = r.pick(p.leavesUnder[sub])
		}
	}
	return fmt.Sprintf(`SELECT c, h, t, p, s, share_1, share_2, share_3 FROM (SELECT c, h, t, p, s, share_1, share_2, share_3 FROM apb_cube
  SPREADSHEET %s
  PBY (c, h, t) DBY (p) MEA (s, 0 share_1, 0 share_2, 0 share_3)
  RULES UPDATE (F1: share_1[*] = s[cv(p)] / s[parent1[cv(p)]], F2: share_2[*] = s[cv(p)] / s[parent2[cv(p)]], F3: share_3[*] = s[cv(p)] / s[parent3[cv(p)]])) v
WHERE p IN (%s)%s ORDER BY c, h, t, p`, prefClause, quoteList(prods), where)
}

// yagoGrowth: year-ago and quarter-ago ratios through a time_dt reference
// spreadsheet (the paper's Table 1 / query S1) over three months of the
// last year. where narrows it: nothing extra for sheet_cold (one customer,
// every channel and product), one channel for the ingest readers.
func (p *pools) yagoGrowth(r *rng, where string) string {
	months := p.months[p.nMonths-12:]
	start := r.intn(10)
	return fmt.Sprintf(`SELECT c, h, p, t, s, r_yago, r_qago FROM (SELECT c, h, p, t, s, r_yago, r_qago FROM apb_cube
  SPREADSHEET REFERENCE prior ON (SELECT m, m_yago, m_qago FROM time_dt) DBY (m) MEA (m_yago, m_qago)
  PBY (c, h, p) DBY (t) MEA (s, r_yago, r_qago)
  RULES UPDATE (F1: r_yago[*] = s[cv(t)] / s[m_yago[cv(t)]] * %s, F2: r_qago[*] = s[cv(t)] / s[m_qago[cv(t)]])) v
WHERE c = '%s' AND t IN (%s)%s ORDER BY h, p, t`, r.factor(1, 0.1), r.pick(p.customers), quoteList(months[start:start+3]), where)
}

// yagoNarrow is yagoGrowth on one channel and twelve level-2 products.
func (p *pools) yagoNarrow(r *rng) string {
	return p.yagoGrowth(r, fmt.Sprintf(" AND h = '%s' AND p IN (%s)", r.pick(p.channels), quoteList(r.sample(p.level2, 12))))
}

// cubeRules: six existential rules over every cell of a cube slice, reduced
// by an outer GROUP BY so the wire stays small (Fig. 3/4's regime). Wide:
// one customer (~22k cells), the dearest shape, where p95 lands; narrow:
// one (customer, channel, month).
func (p *pools) cubeRules(r *rng, narrow bool) string {
	where := ""
	if narrow {
		where = fmt.Sprintf(" AND h = '%s' AND t = '%s'", r.pick(p.channels), r.pick(p.months))
	}
	return fmt.Sprintf(`SELECT h, t, COUNT(*) AS n, MAX(share_1) AS m1, MAX(share_5) AS m5, MIN(share_6) AS m6, MAX(share_4) AS m4 FROM (SELECT c, h, t, p, s, share_1, share_2, share_3, share_4, share_5, share_6 FROM apb_cube
  SPREADSHEET %s
  PBY (c, h, t) DBY (p) MEA (s, 0 share_1, 0 share_2, 0 share_3, 0 share_4, 0 share_5, 0 share_6)
  RULES UPDATE (F1: share_1[*] = s[cv(p)] / s[parent1[cv(p)]], F2: share_2[*] = s[cv(p)] / s[parent2[cv(p)]], F3: share_3[*] = s[cv(p)] / s[parent3[cv(p)]],
  F4: share_4[*] = s[cv(p)] * %s, F5: share_5[*] = share_1[cv(p)] + share_2[cv(p)], F6: share_6[*] = s[cv(p)] / s['TOP'])) v
WHERE c = '%s'%s GROUP BY h, t ORDER BY h, t`, prefClause, r.factor(1, 1), r.pick(p.customers), where)
}

var sheetShapes = []shape{
	{name: "iterate_prev", share: 0.2},
	{name: "forecast_upsert", share: 0.2},
	{name: "s5_share", share: 0.2},
	{name: "yago_growth", share: 0.2},
	{name: "cube_rules", share: 0.2},
}

// sheetSet is one wide statement of each spreadsheet shape, in shape order.
func (p *pools) sheetSet(r *rng) []stmt {
	return []stmt{
		{p.iteratePrev(r), 0},
		{p.forecastUpsert(r, false), 1},
		{p.s5Share(r, false), 2},
		{p.yagoGrowth(r, ""), 3},
		{p.cubeRules(r, false), 4},
	}
}

// dashShapes are the narrow forms, listed by what a result-cache hit costs:
// the size of the reply.
var dashShapes = []shape{
	{name: "cube_rules", share: 0.2},
	{name: "forecast_upsert", share: 0.2},
	{name: "iterate_prev", share: 0.2},
	{name: "s5_share", share: 0.2},
	{name: "yago_growth", share: 0.2},
}

func (p *pools) dashSet(r *rng) []stmt {
	return []stmt{
		{p.cubeRules(r, true), 0},
		{p.forecastUpsert(r, true), 1},
		{p.iteratePrev(r), 2},
		{p.s5Share(r, true), 3},
		{p.yagoNarrow(r), 4},
	}
}

// --- the five relational shapes (scan_cold) ---

var scanShapes = []shape{
	{name: "filter_project", share: 0.2},
	{name: "order_slice", share: 0.2},
	{name: "join_rollup", share: 0.2},
	{name: "group_fact", share: 0.2},
	{name: "window_ma", share: 0.2},
}

func (p *pools) scanSet(r *rng) []stmt {
	return []stmt{
		{fmt.Sprintf(`SELECT c, h, t, p, s FROM apb_cube WHERE c = '%s' AND h = '%s' AND s > %s`,
			r.pick(p.customers), r.pick(p.channels), r.factor(5000, 100)), 0},
		{fmt.Sprintf(`SELECT c, h, t, p, s FROM apb_cube WHERE t = '%s' AND s < %s ORDER BY s DESC, c, h, p LIMIT 200`,
			r.pick(p.months), r.factor(900, 100)), 1},
		{fmt.Sprintf(`SELECT d.parent1, SUM(a.s) AS total, COUNT(*) AS n FROM apb_cube a JOIN product_dt d ON a.p = d.p WHERE d.lvl = 6 AND a.h = '%s' AND a.s > %s GROUP BY d.parent1 ORDER BY d.parent1`,
			r.pick(p.channels), r.factor(10, 5)), 2},
		{fmt.Sprintf(`SELECT p, c, SUM(s) AS total, COUNT(*) AS n, MAX(s) AS hi FROM apb_fact WHERE h IN (%s) AND s > %s GROUP BY p, c ORDER BY p, c`,
			quoteList(r.sample(p.channels, len(p.channels)/2)), r.factor(10, 40)), 3},
		{fmt.Sprintf(`SELECT c, h, p, t, s, AVG(s) OVER (PARTITION BY c, h, p ORDER BY t ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS ma FROM apb_cube WHERE c = '%s' AND s > %s ORDER BY c, h, p, t LIMIT 500`,
			r.pick(p.customers), r.factor(10, 5)), 4},
	}
}

// shuffle is Fisher-Yates under the workload's rng.
func shuffle(r *rng, s []stmt) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// coldSeq builds `units` sets of fresh-literal statements in shuffled order.
func coldSeq(r *rng, units int, set func(*rng) []stmt) []stmt {
	var out []stmt
	for u := 0; u < units; u++ {
		out = append(out, set(r)...)
	}
	shuffle(r, out)
	return out
}

// --- ingest_mixed ---

// Shares are counts out of the 32-statement block (the one DELETE per round
// is outside it): 28 writes and 4 reads. With two clients an INSERT often
// waits — for the other client's group commit, its UPDATE holding the
// statement lock, or a core its reads occupy — so the insert latencies have a
// long upper third. 27 inserts cover percentiles 0-84.4, which puts p50 at
// the 59th percentile of the inserts, in their flat part; the reads cover
// 87.5-100 and p95 sits in the middle of the three spreadsheet reads.
var ingestShapes = []shape{
	{name: "insert_cells", share: 27.0 / 32, write: true},
	{name: "update_slice", share: 1.0 / 32, write: true},
	{name: "read_newmonth", share: 1.0 / 32},
	{name: "read_growth", share: 3.0 / 32},
	{name: "delete_round", share: 0, write: true},
}

const ingestRowsPerInsert = 16

// ingestMonth names the new-month cells block b of a client writes. Labels
// sort in block order, so one range predicate deletes a round's blocks.
func ingestMonth(client, b int) string { return fmt.Sprintf("2%03d-%02d", client*100+b/12, 1+b%12) }

// ownChannels are the channels only this client writes and reads: channel i
// belongs to client i mod clients.
func (p *pools) ownChannels(client, clients int) []string {
	var own []string
	for i, h := range p.channels {
		if i%clients == client {
			own = append(own, h)
		}
	}
	return own
}

// ingestBlock is 28 writes and 4 reads arranged as four (7 writes, 1 read)
// groups, so every read follows a write of its own client and pays the
// columnar image rebuild.
func (p *pools) ingestBlock(r *rng, own []string, month string) []stmt {
	// A block never writes one (c, h, p) cell twice: spreadsheets address
	// cells by their DBY key and reject duplicates.
	seen := map[string]bool{}
	// The smoke dataset has fewer cells than a block of full inserts
	// needs; there an insert takes as many rows as use up half the cells.
	rows := min(ingestRowsPerInsert, len(p.customers)*len(own)*len(p.leaves)/(2*27))
	insert := func() stmt {
		vals := make([]string, 0, rows)
		for len(vals) < rows {
			c, h, leaf := r.pick(p.customers), own[len(vals)%len(own)], r.pick(p.leaves)
			if key := c + h + leaf; !seen[key] {
				seen[key] = true
				// Integer-valued measures keep every SUM over the new
				// month exact, whatever order concurrent clients' rows
				// land in.
				vals = append(vals, fmt.Sprintf("('%s', '%s', '%s', '%s', %d)", c, h, month, leaf, 10+r.intn(990)))
			}
		}
		return stmt{"INSERT INTO apb_cube VALUES " + strings.Join(vals, ", "), 0}
	}
	update := stmt{fmt.Sprintf("UPDATE apb_cube SET s = s + %d WHERE c = '%s' AND h = '%s' AND t = '%s'",
		1+r.intn(9), r.pick(p.customers), r.pick(own), r.pick(p.months)), 1}
	readNew := stmt{fmt.Sprintf("SELECT p, SUM(s) AS total, COUNT(*) AS n FROM apb_cube WHERE t = '%s' AND h IN (%s) GROUP BY p ORDER BY p", month, quoteList(own)), 2}
	growth := func() stmt { return stmt{p.yagoGrowth(r, " AND h = '"+r.pick(own)+"'"), 3} }
	var out []stmt
	for g, read := range []stmt{growth(), growth(), readNew, growth()} {
		for i := 0; i < 7; i++ {
			if g == 1 && i == 6 {
				out = append(out, update)
			} else {
				out = append(out, insert())
			}
		}
		out = append(out, read)
	}
	return out
}

// ingestSeq is one client's sequence of n blocks starting at block number
// first. It opens by deleting the blocks [delFrom, first), the previous
// sequence's, so the table size stays level and every round measures the
// same table.
func (p *pools) ingestSeq(r *rng, client, clients, delFrom, first, n int) []stmt {
	own := p.ownChannels(client, clients)
	var out []stmt
	if delFrom < first {
		out = append(out, stmt{fmt.Sprintf("DELETE FROM apb_cube WHERE t >= '%s' AND t <= '%s' AND h IN (%s)",
			ingestMonth(client, delFrom), ingestMonth(client, first-1), quoteList(own)), 4})
	}
	for b := first; b < first+n; b++ {
		out = append(out, p.ingestBlock(r, own, ingestMonth(client, b))...)
	}
	return out
}

// generate builds a workload's statement sequences. units is the per-round
// size (see roundUnits); warm-up sizes derive from it.
func generate(name string, seed int64, d *apb.Data, units int) (*workload, error) {
	p := newPools(d)
	r := newRNG(seed, name)
	w := &workload{name: name, clients: 1}
	switch name {
	case "dash_warm":
		w.clients, w.shapes = 2, dashShapes
		var dash []stmt
		for i := 0; i < 5; i++ {
			dash = append(dash, p.dashSet(r)...)
		}
		shuffle(r, dash)
		w.warm = make([][]stmt, w.clients)
		for c := range w.warm {
			// Each client starts a different way round the cycle so two
			// clients rarely ask for the same statement at once.
			rot := append(append([]stmt(nil), dash[c*len(dash)/w.clients:]...), dash[:c*len(dash)/w.clients]...)
			w.warm[c] = rot
		}
		for rd := 0; rd < rounds; rd++ {
			per := make([][]stmt, w.clients)
			for c := range per {
				for u := 0; u < units; u++ {
					per[c] = append(per[c], w.warm[c]...)
				}
			}
			w.seq = append(w.seq, per)
		}
	case "sheet_cold", "scan_cold":
		set, warmUnits := p.sheetSet, 3
		w.shapes = sheetShapes
		if name == "scan_cold" {
			set, warmUnits, w.shapes = p.scanSet, (units+3)/4, scanShapes
		}
		w.warm = [][]stmt{coldSeq(r, warmUnits, set)}
		for rd := 0; rd < rounds; rd++ {
			w.seq = append(w.seq, [][]stmt{coldSeq(r, units, set)})
		}
	case "ingest_mixed":
		w.clients, w.shapes = 2, ingestShapes
		if len(p.channels) < w.clients {
			return nil, fmt.Errorf("ingest_mixed needs %d channels, dataset has %d", w.clients, len(p.channels))
		}
		w.warm = make([][]stmt, w.clients)
		for c := range w.warm {
			w.warm[c] = p.ingestSeq(r, c, w.clients, 0, 0, 1)
		}
		for rd := 0; rd < rounds; rd++ {
			per := make([][]stmt, w.clients)
			for c := range per {
				// Round 0 follows the one warm-up block; round rd > 0
				// follows a round of `units` blocks.
				first, prev := 1+rd*units, units
				if rd == 0 {
					prev = 1
				}
				per[c] = p.ingestSeq(r, c, w.clients, first-prev, first, units)
			}
			w.seq = append(w.seq, per)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	return w, nil
}

// sequenceHash fingerprints every statement text of the workload in order;
// the tests use it to pin "same seed, same inputs".
func (w *workload) sequenceHash() uint64 {
	h := fnv.New64a()
	add := func(per [][]stmt) {
		for _, seq := range per {
			for _, s := range seq {
				h.Write([]byte(s.sql))
				h.Write([]byte{0})
			}
		}
	}
	add(w.warm)
	for _, per := range w.seq {
		add(per)
	}
	return h.Sum64()
}

// stateDigest is the cheap statement that fingerprints apb_cube before the
// kill and as the first statement after recovery.
const stateDigest = `SELECT h, COUNT(*) AS n, MIN(s) AS lo, MAX(s) AS hi FROM apb_cube GROUP BY h ORDER BY h`

// stateDump returns every cube row, for the order-independent per-channel
// state hash compared with the oracle's serial replay.
const stateDump = `SELECT c, h, t, p, s FROM apb_cube`
