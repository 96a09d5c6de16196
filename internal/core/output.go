package core

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// The spreadsheet's output image. A run asked for one (RunOptions.Image)
// hands out, for each output row, its position in the run's input — the
// build keeps every row's (Frame.in); a cell a rule inserted has none — and
// each measure as one typed column over the output rows. The caller gathers
// the PBY and DBY columns from its input image by those positions, so their
// dictionaries and codes are shared. A measure column is the measure's
// vector itself where one bucket's rows are the whole output in bucket
// order, and the buckets' vectors (or, for a measure no rule wrote, the
// input column gathered by position) laid end to end otherwise. Output
// order, and every value's bits, are PartitionSet.Rows'.

// Output is a spreadsheet run's result.
type Output struct {
	// Rows holds the result rows in output order. A run not asked for an
	// image, or evaluating a reused structure, hands out rows only; an image
	// run hands them out beside Pos and Meas only when a rule inserted a
	// cell (Inserted: its keys have no input position).
	Rows []types.Row
	// Pos[i] is output row i's position in the run's input, -1 for a cell a
	// rule inserted; nil when the run handed out rows only.
	Pos []int32
	// Inserted reports that some output row is a cell a rule inserted.
	Inserted bool
	// Meas[k] is measure k's column over the output rows, of the measure's
	// kind (or all NULL); nil as a whole when Pos is.
	Meas []*colstore.Column
}

// output builds the run's Pos and Meas over the evaluated structure, in
// the order Rows hands rows out.
func (ps *PartitionSet) output(updatedOnly bool) *Output {
	m := ps.model
	spans, n := ps.spans(updatedOnly)
	out := &Output{Pos: make([]int32, 0, n), Meas: make([]*colstore.Column, m.NMea)}
	for bi, b := range ps.buckets {
		for i := range spans[bi].n {
			p := int32(-1) // a cell a rule inserted
			if r := spans[bi].at(i); r < len(b.in) {
				p = b.in[r]
			} else {
				out.Inserted = true
			}
			out.Pos = append(out.Pos, p)
		}
	}
	base := m.NPby + m.NDby
	parts := make([]*colstore.Column, len(ps.buckets))
	for k := range out.Meas {
		for bi, b := range ps.buckets {
			parts[bi] = b.column(base+k, spans[bi], false)
		}
		out.Meas[k] = concat(parts, len(out.Pos))
	}
	return out
}

// concat lays parts end to end in one column of n rows: each part is of
// one kind, the measure's, or all NULL. A single part is returned as it is.
func concat(parts []*colstore.Column, n int) *colstore.Column {
	if len(parts) == 1 {
		return parts[0]
	}
	kind := types.KindNull
	for _, c := range parts {
		if c.Kind != types.KindNull {
			kind = c.Kind
		}
	}
	if kind == types.KindNull {
		return allNull(n)
	}
	out := &colstore.Column{Kind: kind, N: n}
	switch kind {
	case types.KindFloat:
		out.Floats = make([]float64, n)
	case types.KindString:
		out.Strs = make([]string, n)
	default: // INT, BOOL
		out.Ints = make([]int64, n)
	}
	off := 0
	for _, c := range parts {
		for i := range c.N {
			o := off + i
			if c.IsNull(i) {
				if out.Nulls == nil {
					out.Nulls = colstore.NewBitmap(n)
				}
				out.Nulls.Set(o)
				continue
			}
			switch kind {
			case types.KindFloat:
				out.Floats[o] = c.Floats[i]
			case types.KindString:
				out.Strs[o] = c.Str(i)
			default: // INT, BOOL
				out.Ints[o] = c.Ints[i]
			}
		}
		off += c.N
	}
	return out
}
