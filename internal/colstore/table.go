package colstore

import "sqlsheet/internal/types"

// Table is the column-major image of a row relation. Rows is the source
// row slice the image was built from, when there is one: vectorized filters
// over a stored table emit these very row values (never re-materialized
// ones), so results are pointer-identical to what the row-at-a-time path
// produces. An image the executor assembles from positions — a join's
// gathered output, a batch projection computed over it — has no Rows: its
// rows exist only once a consumer boxes them from the columns.
type Table struct {
	NRows int
	Cols  []*Column
	Rows  []types.Row

	// tail is the room behind a derived table's vectors (see derive.go);
	// nil for a table built in full, whose vectors are exactly sized.
	tail *tail
}

// Rectangular reports whether every row has exactly ncols values; only
// rectangular row sets have a columnar image.
func Rectangular(ncols int, rows []types.Row) bool {
	for _, r := range rows {
		if len(r) != ncols {
			return false
		}
	}
	return true
}

// FromRows builds the columnar image of rows, or nil when rows have none:
// ragged, or a column mixing kinds. It is the definition of the image:
// Extend, Patch and Keep derive the same image from a predecessor's and are
// tested against it.
func FromRows(ncols int, rows []types.Row) *Table {
	if !Rectangular(ncols, rows) {
		return nil
	}
	t := &Table{NRows: len(rows), Cols: make([]*Column, ncols), Rows: rows}
	var buf []types.Value
	for ci := range t.Cols {
		buf = columnOf(buf, rows, ci)
		if t.Cols[ci] = buildColumn(buf, true); t.Cols[ci] == nil {
			return nil
		}
	}
	return t
}

// WithExtra returns a table sharing t's columns with extra appended — the
// extended image a rule kernel runs over, where leaf ordinals past the
// schema resolve to caller-populated columns. t itself is not modified.
func (t *Table) WithExtra(extra []*Column) *Table {
	cols := make([]*Column, 0, len(t.Cols)+len(extra))
	cols = append(cols, t.Cols...)
	cols = append(cols, extra...)
	return &Table{NRows: t.NRows, Cols: cols, Rows: t.Rows}
}

// NumChunks returns the number of ChunkSize-row chunks covering the table.
func (t *Table) NumChunks() int { return (t.NRows + ChunkSize - 1) / ChunkSize }

// ChunkBounds returns the [lo, hi) row range of chunk k.
func (t *Table) ChunkBounds(k int) (lo, hi int) {
	lo = k * ChunkSize
	hi = lo + ChunkSize
	if hi > t.NRows {
		hi = t.NRows
	}
	return lo, hi
}
