// Package colstore is the columnar chunk storage layer. A Table is the
// column-major image of a row relation: one typed vector per column
// (int64/float64/string/bool), a null bitmap when the column has NULLs, and
// dictionary encoding for low-cardinality string columns. Vectors are stored
// flat and addressed by global row index; processing happens over fixed-size
// chunks (ChunkSize rows) — the morsel pipeline hands kernels contiguous
// [lo,hi) ranges, so a "chunk" is a position range into the flat vectors
// rather than a separately allocated block. Columns that mix kinds across
// rows (legal in this engine: untyped catalog columns and spreadsheet
// working rows) demote to a boxed []types.Value vector, keeping the image
// lossless: Value(i) reconstructs exactly the value the row held, bit for
// bit, so vectorized and row-at-a-time execution produce identical bytes.
package colstore

import (
	"math"
	"sync"

	"sqlsheet/internal/types"
)

// ChunkSize is the nominal rows-per-chunk granularity of vectorized
// processing. Kernels accept arbitrary ranges; the executor slices work at
// morsel boundaries which default to this size.
const ChunkSize = 1024

// DictMaxEntries caps a string column's dictionary. Building past the cap
// abandons dictionary encoding and falls back to plain string storage — a
// high-cardinality column gains nothing from a dictionary and the per-code
// predicate precomputation kernels rely on would stop paying for itself.
const DictMaxEntries = 1 << 16

// Bitmap is a dense bit vector; bit i set means "row i is NULL" when used as
// a column's null bitmap.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports bit i.
func (b Bitmap) Get(i int) bool { return b[uint(i)>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (b Bitmap) Set(i int) { b[uint(i)>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bitmap) Clear(i int) { b[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// Column is one column of a Table. Exactly one representation is populated:
//
//   - Kind INT/BOOL: Ints (booleans store 0/1, mirroring types.Value.I)
//   - Kind FLOAT:    Floats
//   - Kind STRING:   Dict+Codes (dictionary-encoded) or Strs (plain)
//   - Kind NULL, Boxed nil:     every row is NULL (all-null column)
//   - Kind NULL, Boxed non-nil: mixed kinds, boxed row values
//
// Nulls, when non-nil, flags NULL rows of a typed column; the vector slot of
// a NULL row holds the zero element and must not be interpreted.
type Column struct {
	Kind  types.Kind
	N     int
	Nulls Bitmap

	Ints   []int64
	Floats []float64
	Strs   []string
	Dict   []string
	Codes  []uint32
	Boxed  []types.Value

	dictIdx map[string]uint32
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.N }

// IsDict reports whether the column is dictionary-encoded.
func (c *Column) IsDict() bool { return c.Dict != nil }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	if c.Boxed != nil {
		return c.Boxed[i].IsNull()
	}
	if c.Kind == types.KindNull {
		return true
	}
	return c.Nulls != nil && c.Nulls.Get(i)
}

// Value reconstructs row i as a boxed scalar, exactly the value the source
// row held. Kernel fast paths avoid this; generic fallbacks and key encoding
// for boxed columns go through it.
func (c *Column) Value(i int) types.Value {
	if c.Boxed != nil {
		return c.Boxed[i]
	}
	if c.IsNull(i) {
		return types.Null
	}
	switch c.Kind {
	case types.KindInt:
		return types.Value{K: types.KindInt, I: c.Ints[i]}
	case types.KindBool:
		return types.Value{K: types.KindBool, I: c.Ints[i]}
	case types.KindFloat:
		return types.Value{K: types.KindFloat, F: c.Floats[i]}
	case types.KindString:
		return types.Value{K: types.KindString, S: c.Str(i)}
	}
	return types.Null
}

// NumFloat returns the numeric content of row i of an INT or FLOAT column
// widened to float64 (row i must not be NULL).
func (c *Column) NumFloat(i int) float64 {
	if c.Kind == types.KindInt {
		return float64(c.Ints[i])
	}
	return c.Floats[i]
}

// Str returns the string content of row i of a STRING column (not NULL).
func (c *Column) Str(i int) string {
	if c.Dict != nil {
		return c.Dict[c.Codes[i]]
	}
	return c.Strs[i]
}

// DictCode returns the dictionary code for s, if the column is
// dictionary-encoded and s occurs in it.
func (c *Column) DictCode(s string) (uint32, bool) {
	code, ok := c.dictIdx[s]
	return code, ok
}

// intKeyable reports whether f normalizes to an int64 under the engine's
// canonical numeric normalization (types.Equal / AppendKey treat an integral
// FLOAT as the equivalent INT).
func intKeyable(f float64) bool {
	return f == math.Trunc(f) && !math.IsInf(f, 0) && f >= math.MinInt64 && f <= math.MaxInt64
}

// AppendKey appends the canonical key encoding of row i to buf, byte for
// byte what types.AppendKey(buf, c.Value(i)) produces — including the
// integral-float-to-int normalization — without boxing on the typed paths.
func (c *Column) AppendKey(buf []byte, i int) []byte {
	if c.Boxed != nil {
		return types.AppendKey(buf, c.Boxed[i])
	}
	if c.IsNull(i) {
		return append(buf, 0x00)
	}
	switch c.Kind {
	case types.KindInt:
		return appendIntKey(buf, c.Ints[i])
	case types.KindFloat:
		f := c.Floats[i]
		if intKeyable(f) {
			return appendIntKey(buf, int64(f))
		}
		u := math.Float64bits(f)
		buf = append(buf, 0x02)
		return append(buf,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	case types.KindString:
		s := c.Str(i)
		buf = append(buf, 0x03)
		n := len(s)
		buf = append(buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(buf, s...)
	case types.KindBool:
		if c.Ints[i] != 0 {
			return append(buf, 0x05)
		}
		return append(buf, 0x04)
	}
	return append(buf, 0x00)
}

func appendIntKey(buf []byte, v int64) []byte {
	buf = append(buf, 0x01)
	u := uint64(v)
	return append(buf,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// buildColumn materializes column ci of rows. Two passes: the first decides
// the representation (uniform kind? NULLs? dictionary-sized cardinality?),
// the second fills exact-sized vectors.
func buildColumn(ci int, rows []types.Row) *Column {
	n := len(rows)
	kind := types.KindNull
	hasNull := false
	mixed := false
	for _, r := range rows {
		v := r[ci]
		if v.IsNull() {
			hasNull = true
			continue
		}
		if kind == types.KindNull {
			kind = v.K
		} else if v.K != kind {
			mixed = true
			break
		}
	}
	if mixed {
		boxed := make([]types.Value, n)
		for i, r := range rows {
			boxed[i] = r[ci]
		}
		return &Column{Kind: types.KindNull, N: n, Boxed: boxed}
	}
	c := &Column{Kind: kind, N: n}
	if kind == types.KindNull {
		// All-null column: no vector at all.
		c.Nulls = NewBitmap(n)
		for i := 0; i < n; i++ {
			c.Nulls.Set(i)
		}
		return c
	}
	if hasNull {
		c.Nulls = NewBitmap(n)
	}
	switch kind {
	case types.KindInt, types.KindBool:
		c.Ints = make([]int64, n)
		for i, r := range rows {
			if v := r[ci]; v.IsNull() {
				c.Nulls.Set(i)
			} else {
				c.Ints[i] = v.I
			}
		}
	case types.KindFloat:
		c.Floats = make([]float64, n)
		for i, r := range rows {
			if v := r[ci]; v.IsNull() {
				c.Nulls.Set(i)
			} else {
				c.Floats[i] = v.F
			}
		}
	case types.KindString:
		fillString(c, ci, rows)
	}
	return c
}

// fillString dictionary-encodes a string column, falling back to plain
// storage when the dictionary overflows DictMaxEntries.
func fillString(c *Column, ci int, rows []types.Row) {
	n := len(rows)
	dictIdx := make(map[string]uint32)
	dict := make([]string, 0, 16)
	codes := make([]uint32, n)
	for i, r := range rows {
		v := r[ci]
		if v.IsNull() {
			c.Nulls.Set(i)
			continue
		}
		code, ok := dictIdx[v.S]
		if !ok {
			if len(dict) >= DictMaxEntries {
				// Overflow: abandon the dictionary, store plain strings.
				// Re-walk every row: NULL bits past position i haven't
				// been set yet (re-setting earlier ones is idempotent).
				c.Strs = make([]string, n)
				for j, rr := range rows {
					if rr[ci].IsNull() {
						c.Nulls.Set(j)
					} else {
						c.Strs[j] = rr[ci].S
					}
				}
				return
			}
			code = uint32(len(dict))
			dict = append(dict, v.S)
			dictIdx[v.S] = code
		}
		codes[i] = code
	}
	c.Dict, c.Codes, c.dictIdx = dict, codes, dictIdx
}

// selPool recycles selection-vector scratch buffers across morsels and
// statements (the chunk-recycling pool; exercised under -race by the
// parallel chunk scan).
var selPool = sync.Pool{New: func() any { return new([]int32) }}

// GetSel returns a selection scratch buffer with length 0 and capacity ≥ n.
// Return it with PutSel when the morsel is done.
func GetSel(n int) *[]int32 {
	p := selPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, 0, n)
	}
	*p = (*p)[:0]
	return p
}

// PutSel recycles a buffer obtained from GetSel.
func PutSel(p *[]int32) { selPool.Put(p) }
