package apb

import (
	"testing"

	"sqlsheet/internal/catalog"
	"sqlsheet/internal/types"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 7})
	b := Generate(Config{Seed: 7})
	if len(a.Fact) != len(b.Fact) || len(a.Cube) != len(b.Cube) {
		t.Fatal("same seed must give identical sizes")
	}
	for i := range a.Fact {
		for j := range a.Fact[i] {
			if !types.Equal(a.Fact[i][j], b.Fact[i][j]) {
				t.Fatalf("fact row %d differs", i)
			}
		}
	}
	c := Generate(Config{Seed: 8})
	if len(c.Fact) == len(a.Fact) {
		// Sizes may rarely coincide, but sales values must differ.
		same := true
		for i := range a.Fact {
			if !types.Equal(a.Fact[i][4], c.Fact[i][4]) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical data")
		}
	}
}

func TestProductHierarchyShape(t *testing.T) {
	d := Generate(Config{ProductFanout: []int{2, 2, 2, 2, 3, 3}})
	// 7 levels: 1 + 2 + 4 + 8 + 16 + 48 + 144.
	if len(d.Products) != 1+2+4+8+16+48+144 {
		t.Fatalf("products = %d", len(d.Products))
	}
	if len(d.BaseProducts) != 144 {
		t.Fatalf("base products = %d", len(d.BaseProducts))
	}
	for _, pi := range d.BaseProducts {
		if d.Products[pi].Level != 6 {
			t.Fatal("base product at wrong level")
		}
		got := 0
		for anc := d.Products[pi].Parent; anc >= 0; anc = d.Products[anc].Parent {
			got++
		}
		if got != 6 {
			t.Fatalf("base ancestors = %d", got)
		}
	}
	// product_dt excludes the top and has 3 parent columns + level.
	if len(d.ProductDT) != len(d.Products)-1 {
		t.Fatalf("product_dt rows = %d", len(d.ProductDT))
	}
	for _, row := range d.ProductDT {
		if len(row) != 5 {
			t.Fatal("product_dt arity")
		}
	}
}

func TestTimeDimensionTable1(t *testing.T) {
	d := Generate(Config{Years: 2})
	if len(d.Months) != 24 {
		t.Fatalf("months = %d", len(d.Months))
	}
	// Table 1 of the paper: 1999-01 → 1998-01, 1998-10.
	found := false
	for _, row := range d.TimeDT {
		if row[0].S == "1999-01" {
			found = true
			if row[1].S != "1998-01" || row[2].S != "1998-10" {
				t.Errorf("1999-01 maps to %s, %s", row[1].S, row[2].S)
			}
		}
		if row[0].S == "1999-03" {
			if row[1].S != "1998-03" || row[2].S != "1998-12" {
				t.Errorf("1999-03 maps to %s, %s", row[1].S, row[2].S)
			}
		}
	}
	if !found {
		t.Fatal("1999-01 missing from time_dt")
	}
}

func TestDensityControlsFactSize(t *testing.T) {
	lo := Generate(Config{Seed: 3, Density: 0.05})
	hi := Generate(Config{Seed: 3, Density: 0.5})
	if len(hi.Fact) <= len(lo.Fact)*3 {
		t.Errorf("density not respected: %d vs %d", len(lo.Fact), len(hi.Fact))
	}
	total := lo.Cfg.Customers * lo.Cfg.Channels * len(lo.Months) * len(lo.BaseProducts)
	frac := float64(len(lo.Fact)) / float64(total)
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("density 0.05 produced fraction %.3f", frac)
	}
}

func TestCubeRollupConsistency(t *testing.T) {
	d := Generate(Config{Seed: 2})
	// The top-level cube row for each (c,h,t) must equal the sum of base
	// fact rows for it.
	factSum := map[string]float64{}
	for _, row := range d.Fact {
		factSum[row[0].S+"|"+row[1].S+"|"+row[2].S] += row[4].F
	}
	checked := 0
	for _, row := range d.Cube {
		if row[3].S != "TOP" {
			continue
		}
		k := row[0].S + "|" + row[1].S + "|" + row[2].S
		if diff := row[4].F - factSum[k]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("rollup mismatch at %s: %g vs %g", k, row[4].F, factSum[k])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no TOP rows in cube")
	}
	if len(d.Cube) <= len(d.Fact) {
		t.Error("cube must contain rollup rows beyond the fact rows")
	}
}

func TestInstall(t *testing.T) {
	cat := catalog.New()
	d := Generate(Config{})
	if err := d.Install(cat); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"apb_fact", "apb_cube", "product_dt", "time_dt"} {
		tb, ok := cat.Get(name)
		if !ok || len(tb.Rows) == 0 {
			t.Errorf("table %s missing or empty", name)
		}
	}
	if err := d.Install(cat); err == nil {
		t.Error("double install must fail (tables exist)")
	}
}

func TestProductsAtLevel(t *testing.T) {
	d := Generate(Config{ProductFanout: []int{2, 2, 2, 2, 3, 3}})
	if got := len(d.ProductsAtLevel(0)); got != 1 {
		t.Errorf("level 0 = %d", got)
	}
	if got := len(d.ProductsAtLevel(6)); got != 144 {
		t.Errorf("level 6 = %d", got)
	}
}
