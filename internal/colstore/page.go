package colstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"sqlsheet/internal/types"
)

// Page codec: a block of rows serialized column-major with per-column
// dictionary and varint compression. The spill store writes one page per
// evicted block; pages decode back to the exact rows encoded (kinds
// preserved, including columns that mix kinds).
//
//	page   := nrows:uvarint ncols:uvarint column*
//	column := repr:byte nulls? payload
//	repr   := 0 all-null | 1 int | 2 float | 3 string-plain |
//	          4 string-dict | 5 bool | 6 mixed
//	nulls  := hasNulls:byte [bitmap: ceil(nrows/64)*8 bytes]   (repr 1..5)
//
// Typed payloads carry only non-NULL slots in row order; the null bitmap
// says which slots were skipped. A column mixing kinds (a spreadsheet measure
// can, a stored column cannot) carries every slot kind-tagged.
const (
	pageAllNull byte = iota
	pageInt
	pageFloat
	pageStrPlain
	pageStrDict
	pageBool
	pageMixed
)

// AppendPage appends the page encoding of rows to buf. ok=false means the
// rows are ragged and nothing was appended.
func AppendPage(buf []byte, ncols int, rows []types.Row) ([]byte, bool) {
	if !Rectangular(ncols, rows) {
		return buf, false
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	buf = binary.AppendUvarint(buf, uint64(ncols))
	var vals []types.Value
	for ci := 0; ci < ncols; ci++ {
		vals = columnOf(vals, rows, ci)
		if c := buildColumn(vals, true); c != nil {
			buf = appendColumn(buf, c)
			continue
		}
		buf = append(buf, pageMixed)
		for _, v := range vals {
			buf = appendValue(buf, v)
		}
	}
	return buf, true
}

func appendColumn(buf []byte, c *Column) []byte {
	if c.Kind == types.KindNull {
		return append(buf, pageAllNull)
	}
	switch c.Kind {
	case types.KindInt:
		buf = append(buf, pageInt)
	case types.KindFloat:
		buf = append(buf, pageFloat)
	case types.KindString:
		if c.IsDict() {
			buf = append(buf, pageStrDict)
		} else {
			buf = append(buf, pageStrPlain)
		}
	case types.KindBool:
		buf = append(buf, pageBool)
	}
	if c.Nulls != nil {
		buf = append(buf, 1)
		for _, w := range c.Nulls {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	} else {
		buf = append(buf, 0)
	}
	switch c.Kind {
	case types.KindInt:
		for i := 0; i < c.N; i++ {
			if !c.IsNull(i) {
				buf = binary.AppendVarint(buf, c.Ints[i])
			}
		}
	case types.KindFloat:
		for i := 0; i < c.N; i++ {
			if !c.IsNull(i) {
				buf = binary.AppendUvarint(buf, math.Float64bits(c.Floats[i]))
			}
		}
	case types.KindString:
		if c.IsDict() {
			buf = binary.AppendUvarint(buf, uint64(len(c.Dict)))
			for _, s := range c.Dict {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			for i := 0; i < c.N; i++ {
				if !c.IsNull(i) {
					buf = binary.AppendUvarint(buf, uint64(c.Codes[i]))
				}
			}
		} else {
			for i := 0; i < c.N; i++ {
				if !c.IsNull(i) {
					buf = binary.AppendUvarint(buf, uint64(len(c.Strs[i])))
					buf = append(buf, c.Strs[i]...)
				}
			}
		}
	case types.KindBool:
		for i := 0; i < c.N; i++ {
			if !c.IsNull(i) {
				buf = append(buf, byte(c.Ints[i]))
			}
		}
	}
	return buf
}

func appendValue(buf []byte, v types.Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case types.KindInt, types.KindBool:
		buf = binary.AppendVarint(buf, v.I)
	case types.KindFloat:
		buf = binary.AppendUvarint(buf, math.Float64bits(v.F))
	case types.KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	}
	return buf
}

// DecodePage decodes a page back into rows.
func DecodePage(data []byte) ([]types.Row, error) {
	d := &pageDecoder{data: data}
	nrows := int(d.uv())
	ncols := int(d.uv())
	if d.err != nil {
		return nil, d.err
	}
	rows := make([]types.Row, nrows)
	flat := make([]types.Value, nrows*ncols)
	for i := range rows {
		rows[i] = flat[i*ncols : (i+1)*ncols : (i+1)*ncols]
	}
	for ci := 0; ci < ncols; ci++ {
		if err := d.column(rows, ci, nrows); err != nil {
			return nil, err
		}
	}
	return rows, d.err
}

type pageDecoder struct {
	data []byte
	pos  int
	err  error
}

func (d *pageDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("corrupt page at offset %d", d.pos)
	}
}

func (d *pageDecoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *pageDecoder) iv() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.pos += n
	return v
}

func (d *pageDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.fail()
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *pageDecoder) str() string {
	n := int(d.uv())
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.data) {
		d.fail()
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

// nulls reads the optional null bitmap of a typed column.
func (d *pageDecoder) nulls(nrows int) Bitmap {
	if d.byte() == 0 {
		return nil
	}
	nb := NewBitmap(nrows)
	for i := range nb {
		if d.pos+8 > len(d.data) {
			d.fail()
			return nil
		}
		nb[i] = binary.LittleEndian.Uint64(d.data[d.pos:])
		d.pos += 8
	}
	return nb
}

func (d *pageDecoder) column(rows []types.Row, ci, nrows int) error {
	repr := d.byte()
	if d.err != nil {
		return d.err
	}
	switch repr {
	case pageAllNull:
		return nil // rows start out zeroed = NULL
	case pageMixed:
		for i := 0; i < nrows; i++ {
			rows[i][ci] = d.value()
		}
		return d.err
	}
	nb := d.nulls(nrows)
	isNull := func(i int) bool { return nb != nil && nb.Get(i) }
	switch repr {
	case pageInt:
		for i := 0; i < nrows; i++ {
			if !isNull(i) {
				rows[i][ci] = types.Value{K: types.KindInt, I: d.iv()}
			}
		}
	case pageFloat:
		for i := 0; i < nrows; i++ {
			if !isNull(i) {
				rows[i][ci] = types.NewFloat(math.Float64frombits(d.uv()))
			}
		}
	case pageStrPlain:
		for i := 0; i < nrows; i++ {
			if !isNull(i) {
				rows[i][ci] = types.NewString(d.str())
			}
		}
	case pageStrDict:
		dict := make([]string, d.uv())
		for i := range dict {
			dict[i] = d.str()
		}
		for i := 0; i < nrows; i++ {
			if !isNull(i) {
				code := d.uv()
				if d.err != nil {
					return d.err
				}
				if code >= uint64(len(dict)) {
					d.fail()
					return d.err
				}
				rows[i][ci] = types.NewString(dict[code])
			}
		}
	case pageBool:
		for i := 0; i < nrows; i++ {
			if !isNull(i) {
				rows[i][ci] = types.Value{K: types.KindBool, I: int64(d.byte())}
			}
		}
	default:
		d.fail()
	}
	return d.err
}

func (d *pageDecoder) value() types.Value {
	k := types.Kind(d.byte())
	if d.err != nil {
		return types.Null
	}
	switch k {
	case types.KindNull:
		return types.Null
	case types.KindInt, types.KindBool:
		return types.Value{K: k, I: d.iv()}
	case types.KindFloat:
		return types.NewFloat(math.Float64frombits(d.uv()))
	case types.KindString:
		return types.NewString(d.str())
	}
	d.fail()
	return types.Null
}
