package mvcc_test

import (
	"fmt"
	"testing"

	"sqlsheet/internal/apb"
	"sqlsheet/internal/catalog"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/mvcc"
	"sqlsheet/internal/types"
)

// benchCube installs the benchmark's APB cube (bench/workload.go's fullScale,
// ≈ 177.7k rows), makes its measure column mixed-kind as the ingest workload's
// integer inserts do, and builds its image.
func benchCube(b *testing.B) *catalog.Table {
	b.Helper()
	cat := catalog.New()
	d := apb.Generate(apb.Config{Seed: 7, ProductFanout: []int{2, 3, 3, 3, 4, 4}, Channels: 4, Customers: 8, Years: 2, Density: 0.1})
	if err := d.Install(cat); err != nil {
		b.Fatal(err)
	}
	cube, _ := cat.Get("apb_cube")
	if err := cube.Insert(benchCells("2100-01", 16)...); err != nil {
		b.Fatal(err)
	}
	cube.Publish()
	cube.Img().Columnar()
	return cube
}

func benchCells(month string, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewString(fmt.Sprintf("cust%02d", i%8)), types.NewString(fmt.Sprintf("chan%d", i%4)),
			types.NewString(month), types.NewString("TOP"), types.NewInt(int64(10 + i))}
	}
	return rows
}

// BenchmarkImageAfterWrite is the table of EXPERIMENTS.md "A write costs what
// it touches": the columnar form of the benchmark cube's next image, built in
// full (colstore.FromRows) against derived from the previous image's, after a
// 16-row append, an UPDATE of one (c,h,t) slice's measure, and a DELETE of one
// ingest round's cells (448 rows). Run with -benchmem: bytes are half the
// result.
func BenchmarkImageAfterWrite(b *testing.B) {
	writes := []struct {
		name  string
		write func(cube *catalog.Table, i int)
	}{
		{"append16", func(cube *catalog.Table, i int) {
			if err := cube.Insert(benchCells(fmt.Sprintf("21%02d-%02d", i/12%100, 1+i%12), 16)...); err != nil {
				b.Fatal(err)
			}
		}},
		{"update-slice", func(cube *catalog.Table, i int) {
			// One (c, h, t) slice: the rows the ingest UPDATE's WHERE names.
			key := cube.Rows[(i*7919)%len(cube.Rows)]
			var pos []int32
			next := append(make([]types.Row, 0, cap(cube.Rows)), cube.Rows...)
			for p, r := range cube.Rows {
				if r[0].S == key[0].S && r[1].S == key[1].S && r[2].S == key[2].S {
					nr := r.Clone()
					nr[4] = types.NewFloat(r[4].Float() + 1)
					next[p] = nr
					pos = append(pos, int32(p))
				}
			}
			cube.Replace(&mvcc.Delta{From: cube.Img(), Rows: next, Patched: pos, Cols: []int{4}})
		}},
		{"delete-round", func(cube *catalog.Table, i int) {
			// Put a round's cells in (and read them, as the workload does),
			// then delete them: the timed image is the DELETE's.
			if err := cube.Insert(benchCells("2200-01", 448)...); err != nil {
				b.Fatal(err)
			}
			cube.Publish()
			cube.Img().Columnar()
			n := len(cube.Rows) - 448
			kept := make([]int32, n)
			for p := range kept {
				kept[p] = int32(p)
			}
			next := append(make([]types.Row, 0, cap(cube.Rows)), cube.Rows[:n]...)
			cube.Replace(&mvcc.Delta{From: cube.Img(), Rows: next, Kept: kept})
		}},
	}
	for _, w := range writes {
		for _, how := range []string{"full", "derived"} {
			b.Run(w.name+"/"+how, func(b *testing.B) {
				cube := benchCube(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w.write(cube, i)
					cube.Publish()
					im := cube.Img()
					b.StartTimer()
					if how == "full" {
						if colstore.FromRows(cube.Schema.Len(), im.Rows) == nil {
							b.Fatal("no image")
						}
						b.StopTimer()
						im.Columnar() // untimed: the next iteration derives from it
						b.StartTimer()
					} else if im.Columnar() == nil {
						b.Fatal("no image")
					}
				}
			})
		}
	}
}
