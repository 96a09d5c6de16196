package colstore

import "sqlsheet/internal/types"

// Gather builds a dense column holding rows idx[0], idx[1], ... of c. An
// index of -1 yields a NULL slot — the join's null-extended side. The
// result keeps c's representation where possible: dictionary columns share
// the source dictionary (codes are gathered, the dict itself is immutable),
// typed columns gather their vectors, boxed columns gather boxed values.
// Gather(c, idx).Value(k) == c.Value(idx[k]) bit for bit (types.Null for -1).
func Gather(c *Column, idx []int32) *Column {
	n := len(idx)
	out := &Column{Kind: c.Kind, N: n}
	if c.Boxed != nil {
		out.Boxed = make([]types.Value, n)
		for k, i := range idx {
			if i >= 0 {
				out.Boxed[k] = c.Boxed[i]
			}
		}
		return out
	}
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
			out.Dict, out.dictIdx = c.Dict, c.dictIdx
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

// Builder accumulates rows into a columnar Table one row at a time, copying
// the values immediately — callers may reuse or mutate the row after Append
// (the spreadsheet frame scan hands out rows that must not be retained).
type Builder struct {
	vals [][]types.Value
	n    int
}

// NewBuilder returns a builder for rows of ncols values.
func NewBuilder(ncols int) *Builder {
	return &Builder{vals: make([][]types.Value, ncols)}
}

// Append copies one row into the builder.
func (b *Builder) Append(row types.Row) {
	for ci := range b.vals {
		b.vals[ci] = append(b.vals[ci], row[ci])
	}
	b.n++
}

// Len returns the number of rows appended.
func (b *Builder) Len() int { return b.n }

// Build materializes the columnar image with the same representation
// decisions as FromRows (typed vectors, null bitmaps, dictionary encoding
// with plain-string overflow). The builder must not be reused afterwards.
func (b *Builder) Build() *Table {
	t := &Table{NRows: b.n, Cols: make([]*Column, len(b.vals))}
	for ci := range b.vals {
		t.Cols[ci] = buildColumnVals(b.vals[ci], true)
	}
	return t
}

// FromValues builds one column from boxed values with the same
// representation decisions as a full image build (typed vectors, null
// bitmaps, dictionary encoding with plain-string overflow, boxed storage
// for mixed kinds). The slice may be retained (mixed-kind columns keep it).
func FromValues(vals []types.Value) *Column {
	return buildColumnVals(vals, true)
}

// FromValuesPlain is FromValues with strings stored plain, never
// dictionary-encoded: for a transient image that kernels read a few times,
// where building the dictionary (a map probe per value) costs more than it
// saves.
func FromValuesPlain(vals []types.Value) *Column {
	return buildColumnVals(vals, false)
}

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

// buildColumnVals is buildColumn over column-major boxed values: the same
// two passes deciding representation, then filling exact-sized vectors
// (strings dictionary-encoded when dict is set, plain otherwise).
func buildColumnVals(vals []types.Value, dict bool) *Column {
	n := len(vals)
	kind := types.KindNull
	hasNull := false
	mixed := false
	for _, v := range vals {
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
		return &Column{Kind: types.KindNull, N: n, Boxed: vals}
	}
	c := &Column{Kind: kind, N: n}
	if kind == types.KindNull {
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
		if dict {
			fillStringVals(c, vals)
		} else {
			fillPlainVals(c, vals)
		}
	}
	return c
}

// fillPlainVals stores a string column from boxed values plain.
func fillPlainVals(c *Column, vals []types.Value) {
	c.Strs = make([]string, len(vals))
	for i, v := range vals {
		if v.IsNull() {
			c.Nulls.Set(i)
		} else {
			c.Strs[i] = v.S
		}
	}
}

// fillStringVals dictionary-encodes a string column from boxed values,
// falling back to plain storage when the dictionary overflows.
func fillStringVals(c *Column, vals []types.Value) {
	n := len(vals)
	dictIdx := make(map[string]uint32)
	dict := make([]string, 0, 16)
	codes := make([]uint32, n)
	for i, v := range vals {
		if v.IsNull() {
			c.Nulls.Set(i)
			continue
		}
		code, ok := dictIdx[v.S]
		if !ok {
			if len(dict) >= DictMaxEntries {
				fillPlainVals(c, vals)
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
