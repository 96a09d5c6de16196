package wordkey

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// Reader computes one key column's ordinals for runs of input rows, over a
// domain built from the whole input.
type Reader struct {
	Dom *Domain
	// col is the dictionary or INT vector read by code or by arithmetic;
	// nil with Dom.isInt reads the boxed INT values of rows.
	col  *colstore.Column
	ridx []int32
	ord  int // the key's ordinal in the input rows
	// ords holds every input row's ordinal on the value-map path.
	ords []uint32
	null uint32 // NULL's ordinal
}

// NewReader builds the domain of the key at ordinal ord of the n input
// rows. c, when non-nil, is the same key as a column (input row i is c's row
// ridx[i], or row i when ridx is nil) and the only thing read: rows may then
// be nil. A dictionary column keys by its codes and an INT one by
// arithmetic, with no pass over the values but the INT range's. Anything
// else is numbered in one pass over the values, in input order; with no
// column, rows[i][ord] is input row i's value.
func NewReader(c *colstore.Column, ridx []int32, rows []types.Row, n, ord int) Reader {
	d := &Domain{}
	rd := Reader{Dom: d, ord: ord, null: NoOrd}
	var lo, hi int64
	any, hasNull := false, false
	span := func(v int64) {
		if !any || v < lo {
			lo = v
		}
		if !any || v > hi {
			hi = v
		}
		any = true
	}
	switch {
	case c != nil && c.Kind == types.KindString && c.Dict != nil:
		d.dict, d.base = c, uint32(len(c.Dict))
		rd.col, rd.ridx, hasNull = c, ridx, c.Nulls != nil
	case c != nil && c.Kind == types.KindInt:
		for ri := 0; ri < n; ri++ {
			r := ri
			if ridx != nil {
				r = int(ridx[ri])
			}
			if c.Nulls != nil && c.Nulls.Get(r) {
				hasNull = true
			} else {
				span(c.Ints[r])
			}
		}
		d.isInt = true
		rd.col, rd.ridx = c, ridx
	case c == nil:
		d.isInt = true
		for _, row := range rows {
			if v := row[ord]; v.K == types.KindInt {
				span(v.I)
			} else if v.K == types.KindNull {
				hasNull = true
			} else {
				d.isInt = false
				break
			}
		}
	}
	if d.isInt && any && uint64(hi)-uint64(lo) >= maxIntRange {
		d.isInt, rd.col, rd.ridx = false, nil, nil
	}
	if d.isInt {
		d.lo = lo
		if any {
			d.base = uint32(hi-lo) + 1
		}
	}
	if d.dict != nil || d.isInt {
		d.size = d.base
		if hasNull {
			rd.null = d.Grow(types.Null)
		}
		return rd
	}
	// The value map: one serial pass numbers the values in input order.
	rd.ords = make([]uint32, n)
	for ri := range rd.ords {
		switch {
		case c == nil:
			rd.ords[ri] = d.Grow(rows[ri][ord])
		case ridx != nil:
			rd.ords[ri] = d.Grow(c.Value(int(ridx[ri]))) // interp-ok: the value map numbers values, once per input row as a boxed row would
		default:
			rd.ords[ri] = d.Grow(c.Value(ri)) // interp-ok: as above
		}
	}
	return rd
}

// Fill writes the ordinals of input rows [lo, lo+len(out)) to out.
func (rd *Reader) Fill(rows []types.Row, lo int, out []uint32) {
	switch c := rd.col; {
	case rd.ords != nil:
		copy(out, rd.ords[lo:])
	case c != nil && c.Dict != nil:
		for i := range out {
			r := lo + i
			if rd.ridx != nil {
				r = int(rd.ridx[r])
			}
			if c.Nulls != nil && c.Nulls.Get(r) {
				out[i] = rd.null
			} else {
				out[i] = c.Codes[r]
			}
		}
	case c != nil:
		for i := range out {
			r := lo + i
			if rd.ridx != nil {
				r = int(rd.ridx[r])
			}
			if c.Nulls != nil && c.Nulls.Get(r) {
				out[i] = rd.null
			} else {
				out[i] = uint32(uint64(c.Ints[r]) - uint64(rd.Dom.lo))
			}
		}
	default: // boxed INT values
		for i := range out {
			v := rows[lo+i][rd.ord]
			if v.K == types.KindNull {
				out[i] = rd.null
			} else {
				out[i] = uint32(uint64(v.I) - uint64(rd.Dom.lo))
			}
		}
	}
}

// InternRows gives every one of the n input rows the interned word of its
// ordinals under a byte-keyed layout, serially and in input order. rows is
// read only by a reader without a column.
func InternRows(rows []types.Row, n int, rds []Reader, lay *Layout) []uint64 {
	ords := make([][]uint32, len(rds))
	for d := range rds {
		ords[d] = make([]uint32, n)
		rds[d].Fill(rows, 0, ords[d])
	}
	words := make([]uint64, n)
	tuple := make([]uint32, len(rds))
	var buf []byte
	for ri := range words {
		for d := range tuple {
			tuple[d] = ords[d][ri]
		}
		words[ri] = lay.Add(tuple, &buf)
	}
	return words
}

// RowWords writes the words of input rows [lo, lo+len(out)) to out, a
// dimension at a time; scratch holds len(out) ordinals. pre, when non-nil,
// holds every row's word already (InternRows' result).
func RowWords(rows []types.Row, rds []Reader, lay *Layout, pre []uint64, lo int, scratch []uint32, out []uint64) {
	if pre != nil {
		copy(out, pre[lo:])
		return
	}
	clear(out)
	for d := range rds {
		rds[d].Fill(rows, lo, scratch)
		sh := lay.Shift[d]
		for i, o := range scratch {
			out[i] |= uint64(o) << sh
		}
	}
}
