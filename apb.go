package sqlsheet

import (
	"context"

	"sqlsheet/internal/apb"
)

// APBScale sizes the bundled APB-1-style benchmark dataset (the workload of
// the paper's experiments). Zero fields take laptop-scale defaults.
type APBScale = apb.Config

// APBInfo summarizes an installed dataset.
type APBInfo struct {
	FactRows, CubeRows, Products, Months int
}

// InstallAPB generates the APB dataset and registers its tables:
// apb_fact(c,h,t,p,s), apb_cube(c,h,t,p,s), product_dt(p, parent1, parent2,
// parent3, lvl) and time_dt(m, m_yago, m_qago) — all four, or none when one
// of the names is taken.
func (db *DB) InstallAPB(scale APBScale) (APBInfo, error) {
	d := apb.Generate(scale)
	if err := db.mutate(context.Background(), db.apbMutation(scale, d)); err != nil {
		return APBInfo{}, err
	}
	return APBInfo{
		FactRows: len(d.Fact),
		CubeRows: len(d.Cube),
		Products: len(d.Products),
		Months:   len(d.Months),
	}, nil
}
