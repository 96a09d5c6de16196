package colstore

import "sqlsheet/internal/types"

// Gather builds a dense column holding rows idx[0], idx[1], ... of c. An
// index of -1 yields a NULL slot — the join's null-extended side. The
// result keeps c's representation: dictionary columns share the source
// dictionary (codes are gathered, the dict itself is immutable), the others
// gather their vectors. Gather(c, idx).Value(k) == c.Value(idx[k]) bit for
// bit (types.Null for -1).
func Gather(c *Column, idx []int32) *Column {
	n := len(idx)
	out := &Column{Kind: c.Kind, N: n}
	if c.Kind == types.KindNull {
		out.Nulls = NewBitmap(n)
		for k := range idx {
			out.Nulls.Set(k)
		}
		return out
	}
	setNull := func(k int) {
		if out.Nulls == nil {
			out.Nulls = NewBitmap(n)
		}
		out.Nulls.Set(k)
	}
	switch c.Kind {
	case types.KindInt, types.KindBool:
		out.Ints = make([]int64, n)
		for k, i := range idx {
			if i < 0 || (c.Nulls != nil && c.Nulls.Get(int(i))) {
				setNull(k)
				continue
			}
			out.Ints[k] = c.Ints[i]
		}
	case types.KindFloat:
		out.Floats = make([]float64, n)
		for k, i := range idx {
			if i < 0 || (c.Nulls != nil && c.Nulls.Get(int(i))) {
				setNull(k)
				continue
			}
			out.Floats[k] = c.Floats[i]
		}
	case types.KindString:
		if c.Dict != nil {
			out.Dict, out.dictIdx, out.rank = c.Dict, c.dictIdx, c.rank
			out.Codes = make([]uint32, n)
			for k, i := range idx {
				if i < 0 || (c.Nulls != nil && c.Nulls.Get(int(i))) {
					setNull(k)
					continue
				}
				out.Codes[k] = c.Codes[i]
			}
		} else {
			out.Strs = make([]string, n)
			for k, i := range idx {
				if i < 0 || (c.Nulls != nil && c.Nulls.Get(int(i))) {
					setNull(k)
					continue
				}
				out.Strs[k] = c.Strs[i]
			}
		}
	}
	return out
}

// FromValues builds one column from boxed values with the same
// representation decisions as a full image build (typed vectors, null
// bitmaps, strings dictionary-encoded when dict is set, with plain-string
// overflow); nil when the values mix kinds, which no column represents. The
// slice is not retained.
func FromValues(vals []types.Value, dict bool) *Column { return buildColumn(vals, dict) }

// Broadcast builds an n-row column where every slot holds v — the columnar
// form of a per-rule constant (a partition-key value, a computed aggregate)
// extended over a selection.
func Broadcast(v types.Value, n int) *Column {
	if v.IsNull() {
		c := &Column{Kind: types.KindNull, N: n, Nulls: NewBitmap(n)}
		for i := 0; i < n; i++ {
			c.Nulls.Set(i)
		}
		return c
	}
	c := &Column{Kind: v.K, N: n}
	switch v.K {
	case types.KindInt, types.KindBool:
		c.Ints = make([]int64, n)
		for i := range c.Ints {
			c.Ints[i] = v.I
		}
	case types.KindFloat:
		c.Floats = make([]float64, n)
		for i := range c.Floats {
			c.Floats[i] = v.F
		}
	case types.KindString:
		c.Strs = make([]string, n)
		for i := range c.Strs {
			c.Strs[i] = v.S
		}
	}
	return c
}
