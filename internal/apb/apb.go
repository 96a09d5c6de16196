// Package apb generates an APB-1-style OLAP benchmark dataset (the
// workload of the paper's §6 experiments): four hierarchical dimensions —
// channel (2 levels), time (3 levels), customer (3 levels), product (7
// levels) — a density-controlled fact table, a materialized cube with the
// product hierarchy rolled up (each dimension value encodes its level, as
// the paper describes), and the product_dt / time_dt dimension tables used
// by queries S1 and S5.
//
// The generator is fully deterministic for a given Config.
package apb

import (
	"fmt"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/types"
)

// Config sizes the dataset. The zero value is replaced by DefaultConfig.
type Config struct {
	// Seed drives the deterministic PRNG.
	Seed int64
	// ProductFanout is the children-per-node count for each of the 6
	// levels below the product hierarchy's top (7 levels total, matching
	// APB's prod/class/group/family/line/division/top).
	ProductFanout []int
	// Channels is the number of base channel members (level 2 of 2).
	Channels int
	// Customers is the number of base customer members.
	Customers int
	// Years of months in the time dimension (months are the base level).
	Years int
	// Density is the fraction of (month, channel, customer, base product)
	// combinations present in the fact table; the paper uses 0.1.
	Density float64
}

// DefaultConfig returns a laptop-scale configuration (the paper's shapes at
// reduced size).
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		ProductFanout: []int{2, 2, 2, 2, 3, 3},
		Channels:      2,
		Customers:     4,
		Years:         2,
		Density:       0.1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if len(c.ProductFanout) == 0 {
		c.ProductFanout = d.ProductFanout
	}
	if c.Channels <= 0 {
		c.Channels = d.Channels
	}
	if c.Customers <= 0 {
		c.Customers = d.Customers
	}
	if c.Years <= 0 {
		c.Years = d.Years
	}
	if c.Density <= 0 {
		c.Density = d.Density
	}
	return c
}

// Product is one node of the product hierarchy.
type Product struct {
	Code   string
	Level  int // 0 = top, 6 = base ("prod" level)
	Parent int // index into Products; -1 for top
}

// Data is the generated dataset.
type Data struct {
	Cfg Config

	// Products holds the full hierarchy, index 0 = top.
	Products []Product
	// BaseProducts indexes the leaf (level-6) products.
	BaseProducts []int

	// Months are the base time members, "YYYY-MM".
	Months []string

	// ProductDT rows: p, parent1, parent2, parent3, level.
	ProductDT []types.Row
	// TimeDT rows: m, m_yago, m_qago.
	TimeDT []types.Row
	// Fact rows: c, h, t, p, s (customer, channel, month, base product).
	Fact []types.Row
	// Cube rows: c, h, t, p, s — p at every product hierarchy level
	// (sales summed up the hierarchy), the access pattern of query S5.
	Cube []types.Row
}

// prng is a small deterministic xorshift generator (stdlib math/rand would
// also do; this keeps the stream stable across Go versions).
type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// float returns a uniform float in [0, 1).
func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Generate builds the dataset.
func Generate(cfg Config) *Data {
	cfg = cfg.withDefaults()
	d := &Data{Cfg: cfg}
	rng := &prng{s: uint64(cfg.Seed)*2654435761 + 1}

	d.genProducts()
	d.genTime()
	d.genFact(rng)
	d.genCube()
	return d
}

func (d *Data) genProducts() {
	d.Products = append(d.Products, Product{Code: "TOP", Level: 0, Parent: -1})
	frontier := []int{0}
	for lvl, fan := range d.Cfg.ProductFanout {
		var next []int
		for _, pi := range frontier {
			for c := 0; c < fan; c++ {
				idx := len(d.Products)
				code := fmt.Sprintf("%s.%d", d.Products[pi].Code, c)
				d.Products = append(d.Products, Product{Code: code, Level: lvl + 1, Parent: pi})
				next = append(next, idx)
			}
		}
		frontier = next
	}
	d.BaseProducts = frontier

	// product_dt: every member with its first three ancestors.
	for _, p := range d.Products[1:] {
		row := types.Row{types.NewString(p.Code)}
		anc := p.Parent
		for k := 0; k < 3; k++ {
			if anc >= 0 {
				row = append(row, types.NewString(d.Products[anc].Code))
				anc = d.Products[anc].Parent
			} else {
				row = append(row, types.Null)
			}
		}
		row = append(row, types.NewInt(int64(p.Level)))
		d.ProductDT = append(d.ProductDT, row)
	}
}

// Ancestors returns the codes of a product's ancestors, nearest first.
func (d *Data) Ancestors(idx int) []string {
	var out []string
	for anc := d.Products[idx].Parent; anc >= 0; anc = d.Products[anc].Parent {
		out = append(out, d.Products[anc].Code)
	}
	return out
}

func month(year, m int) string { return fmt.Sprintf("%04d-%02d", year, m) }

func (d *Data) genTime() {
	startYear := 1998
	for y := 0; y < d.Cfg.Years; y++ {
		for m := 1; m <= 12; m++ {
			d.Months = append(d.Months, month(startYear+y, m))
		}
	}
	for y := 0; y < d.Cfg.Years; y++ {
		for m := 1; m <= 12; m++ {
			cur := month(startYear+y, m)
			yago := month(startYear+y-1, m)
			// Quarter ago: same month of the previous quarter.
			qy, qm := startYear+y, m-3
			if qm < 1 {
				qm += 12
				qy--
			}
			qago := month(qy, qm)
			d.TimeDT = append(d.TimeDT, types.Row{
				types.NewString(cur), types.NewString(yago), types.NewString(qago),
			})
		}
	}
}

func (d *Data) genFact(rng *prng) {
	for ci := 0; ci < d.Cfg.Customers; ci++ {
		cust := fmt.Sprintf("cust%02d", ci)
		for hi := 0; hi < d.Cfg.Channels; hi++ {
			ch := fmt.Sprintf("chan%d", hi)
			for _, m := range d.Months {
				for _, pi := range d.BaseProducts {
					if rng.float() >= d.Cfg.Density {
						continue
					}
					s := 10 + rng.float()*990
					d.Fact = append(d.Fact, types.Row{
						types.NewString(cust), types.NewString(ch), types.NewString(m),
						types.NewString(d.Products[pi].Code),
						types.NewFloat(float64(int(s*100)) / 100),
					})
				}
			}
		}
	}
}

// genCube rolls the fact table up the product hierarchy: for every
// (c, h, t) and every ancestor of every base product sold, a row with the
// summed sales. Base rows are included (level 6) down to the top (level 0),
// so query S5's parent lookups always hit.
func (d *Data) genCube() {
	codeIdx := make(map[string]int, len(d.Products))
	for i, p := range d.Products {
		codeIdx[p.Code] = i
	}
	type key struct{ c, h, t, p string }
	sums := make(map[key]float64)
	var order []key
	add := func(k key, v float64) {
		if _, ok := sums[k]; !ok {
			order = append(order, k)
		}
		sums[k] += v
	}
	for _, row := range d.Fact {
		c, h, t, p := row[0].S, row[1].S, row[2].S, row[3].S
		v := row[4].F
		add(key{c, h, t, p}, v)
		for anc := d.Products[codeIdx[p]].Parent; anc >= 0; anc = d.Products[anc].Parent {
			add(key{c, h, t, d.Products[anc].Code}, v)
		}
	}
	for _, k := range order {
		d.Cube = append(d.Cube, types.Row{
			types.NewString(k.c), types.NewString(k.h), types.NewString(k.t),
			types.NewString(k.p), types.NewFloat(sums[k]),
		})
	}
}

// Install registers the dataset's tables in a catalog:
// apb_fact(c,h,t,p,s), apb_cube(c,h,t,p,s), product_dt(p,parent1,parent2,
// parent3,lvl), time_dt(m,m_yago,m_qago). It creates all four or none: every
// name is checked before the first table exists.
func (d *Data) Install(cat *catalog.Catalog) error {
	tables := []struct {
		name string
		cols []string
		rows []types.Row
	}{
		{"apb_fact", []string{"c", "h", "t", "p", "s"}, d.Fact},
		{"apb_cube", []string{"c", "h", "t", "p", "s"}, d.Cube},
		{"product_dt", []string{"p", "parent1", "parent2", "parent3", "lvl"}, d.ProductDT},
		{"time_dt", []string{"m", "m_yago", "m_qago"}, d.TimeDT},
	}
	for _, tb := range tables {
		if cat.InUse(tb.name) {
			return fmt.Errorf("table %q already exists", tb.name)
		}
	}
	for _, tb := range tables {
		t, err := cat.Create(tb.name, types.NewSchemaNames(tb.cols...))
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, tb.rows...)
	}
	return nil
}

// ProductsAtLevel returns the codes of products at the given level.
func (d *Data) ProductsAtLevel(level int) []string {
	var out []string
	for _, p := range d.Products {
		if p.Level == level {
			out = append(out, p.Code)
		}
	}
	return out
}
