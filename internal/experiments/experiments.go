// Package experiments regenerates every table and figure of the paper's §6
// evaluation: predicate pushing (Fig. 2), hash join vs. spreadsheet
// (Fig. 3), scalability with the number of formulas and parallel execution
// (Fig. 4), the memory-limited access structure (Fig. 5), and the Table 1
// time mapping. The same workload builders feed the testing.B benchmarks in
// the repository root and the cmd/experiments binary that prints the
// paper-style series.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sqlsheet"
	"sqlsheet/internal/blockstore"
	"sqlsheet/internal/core"
)

// Scale presets.
var (
	// SmallScale keeps full runs under a second per point (unit tests).
	SmallScale = sqlsheet.APBScale{
		Seed: 1, ProductFanout: []int{2, 2, 2, 2, 3, 3},
		Channels: 2, Customers: 2, Years: 1, Density: 0.2,
	}
	// DefaultScale is the cmd/experiments default (~10^5 cube rows).
	DefaultScale = sqlsheet.APBScale{
		Seed: 1, ProductFanout: []int{2, 2, 3, 3, 3, 4},
		Channels: 2, Customers: 4, Years: 1, Density: 0.1,
	}
	// Fig5Scale concentrates rows into few, large partitions (a deep
	// product hierarchy, one channel/customer), the regime of the paper's
	// memory experiment: its partitions were ~15 MB, far larger than a
	// cache block.
	Fig5Scale = sqlsheet.APBScale{
		Seed: 1, ProductFanout: []int{3, 3, 3, 3, 4, 4},
		Channels: 1, Customers: 1, Years: 1, Density: 0.5,
	}
)

// Workers, when non-zero, sets the operator worker-pool size on every
// configuration the experiments apply (cmd/experiments -workers). It layers
// morsel-driven operator parallelism on top of whatever each figure varies;
// results are unchanged, only timings move.
var Workers int

// withWorkers applies the package-level Workers override to a configuration.
func withWorkers(cfg sqlsheet.Config) sqlsheet.Config {
	cfg.Workers = Workers
	// Experiments time the engine; a warm serving-path cache would answer
	// repeated timing iterations without executing.
	cfg.Ablate.DisablePlanCache = true
	return cfg
}

// Setup creates a database with the APB dataset installed.
func Setup(scale sqlsheet.APBScale) (*sqlsheet.DB, sqlsheet.APBInfo, error) {
	db := sqlsheet.Open()
	info, err := db.InstallAPB(scale)
	if err != nil {
		return nil, info, err
	}
	return db, info, nil
}

// BaseProducts lists the base-level product codes present in the cube, in
// deterministic order. Used to build selectivity-controlled predicates.
func BaseProducts(db *sqlsheet.DB) ([]string, error) {
	res, err := db.Query(`SELECT DISTINCT p FROM product_dt WHERE lvl = 6 ORDER BY p`)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].String()
	}
	return out, nil
}

// S5Query builds the paper's query S5 generalized to nRules share-of-parent
// formulas, optionally wrapped in an outer block filtering products.
// Rule i divides by parent (i-1)%3 + 1.
func S5Query(nRules int, prodFilter []string) string {
	var shares, meas, rules []string
	for i := 1; i <= nRules; i++ {
		parent := (i-1)%3 + 1
		shares = append(shares, fmt.Sprintf("share_%d", i))
		meas = append(meas, fmt.Sprintf("0 share_%d", i))
		rules = append(rules, fmt.Sprintf(
			"F%d: share_%d[*] = s[cv(p)] / s[parent%d[cv(p)]]", i, i, parent))
	}
	inner := fmt.Sprintf(`SELECT c, h, t, p, s, %s FROM apb_cube
  SPREADSHEET
    REFERENCE pref ON
      (SELECT p, parent1, parent2, parent3 FROM product_dt)
      DBY (p) MEA (parent1, parent2, parent3)
    PBY (c, h, t) DBY (p)
    MEA (s, %s)
  RULES UPDATE
  ( %s )`,
		strings.Join(shares, ", "), strings.Join(meas, ", "), strings.Join(rules, ",\n    "))
	if len(prodFilter) == 0 {
		return inner
	}
	return fmt.Sprintf("SELECT * FROM (%s) v WHERE p IN (%s)", inner, quoteList(prodFilter))
}

// S5JoinQuery builds the ANSI-join equivalent of S5Query: one self-join of
// apb_cube per rule plus a join to product_dt (§6, "Hash-Join vs. SQL
// Spreadsheet").
func S5JoinQuery(nRules int, prodFilter []string) string {
	var sel, joins []string
	sel = append(sel, "a1.c", "a1.h", "a1.t", "a1.p", "a1.s")
	for i := 1; i <= nRules; i++ {
		parent := (i-1)%3 + 1
		a := fmt.Sprintf("a%d", i+1)
		sel = append(sel, fmt.Sprintf("a1.s / %s.s AS share_%d", a, i))
		joins = append(joins, fmt.Sprintf(
			"LEFT JOIN apb_cube %[1]s ON %[1]s.p = pd.parent%[2]d AND %[1]s.c = a1.c AND %[1]s.h = a1.h AND %[1]s.t = a1.t",
			a, parent))
	}
	q := fmt.Sprintf(`SELECT %s
FROM apb_cube a1
LEFT JOIN product_dt pd ON a1.p = pd.p
%s`, strings.Join(sel, ", "), strings.Join(joins, "\n"))
	if len(prodFilter) > 0 {
		q += "\nWHERE a1.p IN (" + quoteList(prodFilter) + ")"
	}
	return q
}

func quoteList(vals []string) string {
	qs := make([]string, len(vals))
	for i, v := range vals {
		qs[i] = "'" + strings.ReplaceAll(v, "'", "''") + "'"
	}
	return strings.Join(qs, ", ")
}

// Point is one measured (x, y) sample.
type Point struct {
	X float64
	Y float64 // seconds
	// Rows sanity-checks that variants compute the same result set.
	Rows int
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// timeQuery runs a query three times (the first doubles as warm-up) and
// returns the fastest time plus the row count — single samples are too
// noisy for the relative-units tables.
func timeQuery(db *sqlsheet.DB, q string) (float64, int, error) {
	best := 0.0
	rows := 0
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := db.Query(q)
		if err != nil {
			return 0, 0, fmt.Errorf("%v\nquery:\n%s", err, q)
		}
		secs := time.Since(start).Seconds()
		if i == 0 || secs < best {
			best = secs
		}
		rows = len(res.Rows)
	}
	return best, rows, nil
}

// selectProducts picks ~selectivity×len(base) products deterministically.
func selectProducts(base []string, selectivity float64) []string {
	k := int(selectivity*float64(len(base)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > len(base) {
		k = len(base)
	}
	// Spread the picks across the sorted list for stable behaviour.
	out := make([]string, 0, k)
	step := float64(len(base)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, base[int(float64(i)*step)])
	}
	return out
}

// Fig2 measures the predicate-pushing strategies of §4 against the no-push
// baseline, across outer-predicate selectivities (paper Fig. 2).
func Fig2(scale sqlsheet.APBScale, selectivities []float64) ([]Series, error) {
	db, _, err := Setup(scale)
	if err != nil {
		return nil, err
	}
	base, err := BaseProducts(db)
	if err != nil {
		return nil, err
	}
	type variant struct {
		name string
		cfg  func(c *sqlsheet.Config)
	}
	variants := []variant{
		{"no-pushing", func(c *sqlsheet.Config) { c.Ablate.Plan.DisableSheetPush = true }},
		{"extended-pushing", func(c *sqlsheet.Config) { c.Ablate.Plan.Push = sqlsheet.PushExtended }},
		{"formula-unfolding", func(c *sqlsheet.Config) { c.Ablate.Plan.Push = sqlsheet.PushUnfold }},
		{"subquery-nested-loop", func(c *sqlsheet.Config) {
			c.Ablate.Plan.Push = sqlsheet.PushRefSubquery
			c.Ablate.Plan.ForceJoin = sqlsheet.JoinNestedLoop
		}},
		{"subquery-forced-hash", func(c *sqlsheet.Config) {
			c.Ablate.Plan.Push = sqlsheet.PushRefSubquery
			c.Ablate.Plan.ForceJoin = sqlsheet.JoinHash
		}},
	}
	var out []Series
	for _, v := range variants {
		s := Series{Name: v.name}
		for _, sel := range selectivities {
			prods := selectProducts(base, sel)
			q := S5Query(3, prods)
			cfg := sqlsheet.Config{}
			v.cfg(&cfg)
			db.Configure(withWorkers(cfg))
			secs, rows, err := timeQuery(db, q)
			if err != nil {
				return nil, fmt.Errorf("%s sel=%g: %v", v.name, sel, err)
			}
			s.Points = append(s.Points, Point{X: sel, Y: secs, Rows: rows})
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig3 compares the spreadsheet formulation against the equivalent N-self-
// join ANSI query as the number of rules grows (paper Fig. 3).
func Fig3(scale sqlsheet.APBScale, ruleCounts []int) ([]Series, error) {
	db, _, err := Setup(scale)
	if err != nil {
		return nil, err
	}
	db.Configure(withWorkers(sqlsheet.Config{}))
	sheet := Series{Name: "sql-spreadsheet"}
	joins := Series{Name: "self-joins"}
	for _, n := range ruleCounts {
		secs, rows, err := timeQuery(db, S5Query(n, nil))
		if err != nil {
			return nil, err
		}
		sheet.Points = append(sheet.Points, Point{X: float64(n), Y: secs, Rows: rows})
		secs, rows, err = timeQuery(db, S5JoinQuery(n, nil))
		if err != nil {
			return nil, err
		}
		joins.Points = append(joins.Points, Point{X: float64(n), Y: secs, Rows: rows})
	}
	return []Series{sheet, joins}, nil
}

// Fig4 measures response time as a function of the number of formulas
// (serial), plus parallel speedup across PE counts (paper Fig. 4 reports
// near-linear scaling and ~80% parallel efficiency at 12 PEs).
func Fig4(scale sqlsheet.APBScale, formulaCounts []int, dops []int) ([]Series, error) {
	db, _, err := Setup(scale)
	if err != nil {
		return nil, err
	}
	db.Configure(withWorkers(sqlsheet.Config{}))
	serial := Series{Name: "serial"}
	maxN := 0
	for _, n := range formulaCounts {
		if n > maxN {
			maxN = n
		}
		secs, rows, err := timeQuery(db, S5Query(n, nil))
		if err != nil {
			return nil, err
		}
		serial.Points = append(serial.Points, Point{X: float64(n), Y: secs, Rows: rows})
	}
	par := Series{Name: "parallel-speedup"}
	for _, dop := range dops {
		db.Configure(withWorkers(sqlsheet.Config{Parallel: dop, Ablate: sqlsheet.Ablation{Engine: core.Ablation{Buckets: dop * 4}}}))
		secs, rows, err := timeQuery(db, S5Query(maxN, nil))
		if err != nil {
			return nil, err
		}
		par.Points = append(par.Points, Point{X: float64(dop), Y: secs, Rows: rows})
	}
	// Third series: the same sweep applied to the relational operators — the
	// ANSI self-join formulation with the morsel-driven worker pool at each
	// degree. It answers the obvious follow-up to Fig. 3: does the join
	// formulation catch up when it too is parallelized?
	opPar := Series{Name: "operator-parallel-joins"}
	for _, dop := range dops {
		db.Configure(sqlsheet.Config{Workers: dop, Ablate: sqlsheet.Ablation{DisablePlanCache: true}})
		secs, rows, err := timeQuery(db, S5JoinQuery(maxN, nil))
		if err != nil {
			return nil, err
		}
		opPar.Points = append(opPar.Points, Point{X: float64(dop), Y: secs, Rows: rows})
	}
	return []Series{serial, par, opPar}, nil
}

// Fig5 sweeps the access structure's memory budget as a percentage of the
// largest first-level partition, measuring response time and spill I/O for
// the single-rule share query (paper Fig. 5).
func Fig5(scale sqlsheet.APBScale, percents []int) (Series, []int64, error) {
	db, _, err := Setup(scale)
	if err != nil {
		return Series{}, nil, err
	}
	q := S5Query(1, nil)
	// Compute the largest partition's resident bytes exactly, with the
	// block store's own accounting.
	res, err := db.Query(`SELECT c, h, t, p, s FROM apb_cube`)
	if err != nil {
		return Series{}, nil, err
	}
	partBytes := map[string]int64{}
	var largest int64
	for _, row := range res.Rows {
		k := row[0].String() + "|" + row[1].String() + "|" + row[2].String()
		partBytes[k] += blockstore.RowBytes(row)
		if partBytes[k] > largest {
			largest = partBytes[k]
		}
	}

	s := Series{Name: "response-time"}
	var loads []int64
	for _, pct := range percents {
		budget := largest * int64(pct) / 100
		db.Configure(withWorkers(sqlsheet.Config{MemoryBudget: budget, Ablate: sqlsheet.Ablation{Engine: core.Ablation{Buckets: 8}}}))
		start := time.Now()
		result, stats, err := db.QueryStats(q)
		if err != nil {
			return Series{}, nil, err
		}
		s.Points = append(s.Points, Point{X: float64(pct), Y: time.Since(start).Seconds(), Rows: len(result.Rows)})
		loads = append(loads, stats.BlockLoads)
	}
	return s, loads, nil
}

// Table1 reproduces the paper's Table 1: the month → year-ago/quarter-ago
// mapping held in time_dt.
func Table1(scale sqlsheet.APBScale) ([][3]string, error) {
	if scale.Years < 2 {
		scale.Years = 2 // the mapping needs the 1999 months present
	}
	db, _, err := Setup(scale)
	if err != nil {
		return nil, err
	}
	res, err := db.Query(`SELECT m, m_yago, m_qago FROM time_dt
		WHERE m IN ('1999-01','1999-02','1999-03') ORDER BY m`)
	if err != nil {
		return nil, err
	}
	var out [][3]string
	for _, r := range res.Rows {
		out = append(out, [3]string{r[0].String(), r[1].String(), r[2].String()})
	}
	return out, nil
}

// FormatSeries renders series as an aligned relative-units table, the way
// the paper reports ("only relative units of time are reported"): every Y
// is normalized to the smallest Y across all series.
func FormatSeries(title, xLabel string, series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	minY := 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p.Y > 0 && (minY == 0 || p.Y < minY) {
				minY = p.Y
			}
		}
	}
	if minY == 0 {
		minY = 1
	}
	// Collect the x values (union, sorted).
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)

	fmt.Fprintf(&b, "%-14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "%22s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range series {
			val := ""
			for _, p := range s.Points {
				if p.X == x {
					val = fmt.Sprintf("%.2f", p.Y/minY)
				}
			}
			fmt.Fprintf(&b, "%22s", val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
