// Package colstore is the columnar chunk storage layer. A Table is the
// column-major image of a row relation: one typed vector per column
// (int64/float64/string/bool), a null bitmap when the column has NULLs, and
// dictionary encoding for low-cardinality string columns. Vectors are stored
// flat and addressed by global row index; processing happens over fixed-size
// chunks (ChunkSize rows) — the morsel pipeline hands kernels contiguous
// [lo,hi) ranges, so a "chunk" is a position range into the flat vectors
// rather than a separately allocated block. A column holds values of one
// kind: Value(i) reconstructs exactly the value the row held, bit for bit,
// so vectorized and row-at-a-time execution produce identical bytes. Values
// that mix kinds in one column have no image: the builders say so, and the
// caller stays on the row path. A stored table never mixes them (the catalog
// gives every stored value its column's kind); only computed values can —
// spreadsheet measures and expression results.
package colstore

import (
	"math"
	"slices"
	"strings"
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
//   - Kind NULL:     every row is NULL (all-null column)
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

	dictIdx map[string]uint32
	// rank caches Dict's sort rank (see DictRank). It is shared with every
	// column that shares Dict and replaced when a derived column adds to it.
	rank *dictRank
}

// dictRank is one dictionary's lazily computed sort rank.
type dictRank struct {
	once sync.Once
	rank []uint32
}

// Len returns the number of rows.
func (c *Column) Len() int { return c.N }

// IsDict reports whether the column is dictionary-encoded.
func (c *Column) IsDict() bool { return c.Dict != nil }

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	if c.Kind == types.KindNull {
		return true
	}
	return c.Nulls != nil && c.Nulls.Get(i)
}

// Value reconstructs row i as a boxed scalar, exactly the value the source
// row held. Kernel fast paths avoid this; generic fallbacks go through it.
func (c *Column) Value(i int) types.Value {
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

// DictRank returns the sort rank of a dictionary column's codes: rank[code]
// is the position of Dict[code] among the dictionary's strings in ascending
// byte order, so comparing ranks compares the strings (types.Order), and
// the ranks are distinct because the strings are. It is computed once per
// dictionary and shared by the columns sharing it.
func (c *Column) DictRank() []uint32 {
	if c.rank == nil {
		return rankDict(c.Dict)
	}
	c.rank.once.Do(func() { c.rank.rank = rankDict(c.Dict) })
	return c.rank.rank
}

func rankDict(dict []string) []uint32 {
	order := make([]uint32, len(dict))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(dict[a], dict[b]) })
	rank := make([]uint32, len(dict))
	for r, code := range order {
		rank[code] = uint32(r)
	}
	return rank
}

// AppendKey appends the canonical key encoding of row i to buf, byte for
// byte what types.AppendKey(buf, c.Value(i)) produces — including the
// integral-float-to-int normalization — without boxing on the typed paths.
func (c *Column) AppendKey(buf []byte, i int) []byte {
	if c.IsNull(i) {
		return append(buf, 0x00)
	}
	switch c.Kind {
	case types.KindInt:
		return appendIntKey(buf, c.Ints[i])
	case types.KindFloat:
		f := c.Floats[i]
		if types.IntKeyable(f) {
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

// buildColumn materializes a column of vals, nil when they mix kinds. Two
// passes: the first decides the representation (one kind? NULLs?), the
// second fills exact-sized vectors. Strings are dictionary-encoded when dict
// is set — stored plain past DictMaxEntries — and plain otherwise. vals is
// not retained.
func buildColumn(vals []types.Value, dict bool) *Column {
	n := len(vals)
	kind, hasNull := types.KindNull, false
	for _, v := range vals {
		switch {
		case v.IsNull():
			hasNull = true
		case kind == types.KindNull:
			kind = v.K
		case v.K != kind:
			return nil
		}
	}
	c := &Column{Kind: kind, N: n}
	if hasNull {
		c.Nulls = NewBitmap(n)
	}
	switch kind {
	case types.KindNull: // all-null column: no vector at all
		for i := 0; i < n; i++ {
			c.Nulls.Set(i)
		}
	case types.KindInt, types.KindBool:
		c.Ints = make([]int64, n)
		for i, v := range vals {
			if v.IsNull() {
				c.Nulls.Set(i)
			} else {
				c.Ints[i] = v.I
			}
		}
	case types.KindFloat:
		c.Floats = make([]float64, n)
		for i, v := range vals {
			if v.IsNull() {
				c.Nulls.Set(i)
			} else {
				c.Floats[i] = v.F
			}
		}
	case types.KindString:
		if dict && c.fillDict(vals) {
			break
		}
		c.Strs = make([]string, n)
		for i, v := range vals {
			if v.IsNull() {
				c.Nulls.Set(i)
			} else {
				c.Strs[i] = v.S
			}
		}
	}
	return c
}

// columnOf copies column ci of rows into buf, grown to len(rows).
func columnOf(buf []types.Value, rows []types.Row, ci int) []types.Value {
	buf = slices.Grow(buf[:0], len(rows))[:len(rows)]
	for i, r := range rows {
		buf[i] = r[ci]
	}
	return buf
}

// fillDict dictionary-encodes a string column, or reports that the
// dictionary would outgrow DictMaxEntries.
func (c *Column) fillDict(vals []types.Value) bool {
	dictIdx := make(map[string]uint32)
	dict := make([]string, 0, 16)
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		if v.IsNull() {
			c.Nulls.Set(i)
			continue
		}
		code, ok := dictIdx[v.S]
		if !ok {
			if len(dict) >= DictMaxEntries {
				return false
			}
			code = uint32(len(dict))
			dict = append(dict, v.S)
			dictIdx[v.S] = code
		}
		codes[i] = code
	}
	c.Dict, c.Codes, c.dictIdx, c.rank = dict, codes, dictIdx, new(dictRank)
	return true
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
