package core

import (
	"slices"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/types"
)

// Measure vectors. An unbudgeted bucket stores no rows: its keys stay in the
// input (read through Frame.in) and each measure a rule writes or a batch
// reads lives in one typed vector over the bucket's rows, in bucket-row order
// — the built rows frame after frame, then the cells rules inserted. A vector
// is created on its column's first use by gathering the column from the
// input, so the copy on first write is per column, not per row.
//
// A vector holds one kind, its measure's (kinds.go): every value stored in
// it was converted to that kind first (bucket.admit), so it is one typed
// payload and a null bitmap, and always a column.

// measVec is one measure's values over a bucket's rows.
type measVec struct {
	n int
	// kind is the kind of every non-NULL row (KindNull: every row is NULL,
	// and there is no payload); nulls marks the NULL rows (nil: none).
	kind  types.Kind
	nulls colstore.Bitmap
	// The payload: the one slice of kind's.
	ints   []int64 // INT and BOOL
	floats []float64
	strs   []string
}

// newMeasVec gathers input column ord for a bucket's built rows (input
// positions in) and NULL for its nIns inserted ones, as values of kind.
func newMeasVec(src *input, in []int32, ord, nIns int, kind types.Kind) *measVec {
	n := len(in) + nIns
	v := &measVec{n: n}
	c := src.cols[ord]
	if c == nil || c.Kind == types.KindNull {
		v.pin(kind)
		if c == nil {
			for r, p := range in {
				v.set(r, src.value(p, ord))
			}
		}
		return v
	}
	v.alloc(kind)
	for r, p := range in {
		i := src.imgRow(p)
		if c.IsNull(i) {
			v.setNull(r)
			continue
		}
		switch {
		case kind == types.KindFloat && c.Kind == types.KindInt:
			v.floats[r] = float64(c.Ints[i])
		case kind == types.KindFloat:
			v.floats[r] = c.Floats[i]
		case kind == types.KindString:
			v.strs[r] = c.Str(i)
		default: // INT, BOOL
			v.ints[r] = c.Ints[i]
		}
	}
	for r := len(in); r < n; r++ {
		v.setNull(r)
	}
	return v
}

// clone returns an independent copy of v.
func (v *measVec) clone() *measVec {
	cp := *v
	cp.nulls = slices.Clone(v.nulls)
	cp.ints, cp.floats, cp.strs = slices.Clone(v.ints), slices.Clone(v.floats), slices.Clone(v.strs)
	return &cp
}

// pin gives a vector of NULLs kind k: the payload, every row NULL.
func (v *measVec) pin(k types.Kind) {
	v.alloc(k)
	if k == types.KindNull {
		return
	}
	v.nulls = colstore.NewBitmap(v.n)
	for i := range v.nulls {
		v.nulls[i] = ^uint64(0)
	}
}

// alloc gives the vector kind k and its payload, with no row NULL.
func (v *measVec) alloc(k types.Kind) {
	v.kind = k
	switch k {
	case types.KindNull:
	case types.KindFloat:
		v.floats = make([]float64, v.n)
	case types.KindString:
		v.strs = make([]string, v.n)
	default: // INT, BOOL
		v.ints = make([]int64, v.n)
	}
}

// isNull reports whether row r is NULL.
func (v *measVec) isNull(r int) bool {
	return v.kind == types.KindNull || v.nulls != nil && v.nulls.Get(r)
}

// setNull marks row r NULL.
func (v *measVec) setNull(r int) {
	if v.kind == types.KindNull {
		return
	}
	if v.nulls == nil {
		v.nulls = colstore.NewBitmap(v.n)
	}
	v.nulls.Set(r)
}

// value is row r's value.
func (v *measVec) value(r int) types.Value {
	if v.isNull(r) {
		return types.Null
	}
	switch v.kind {
	case types.KindFloat:
		return types.Value{K: v.kind, F: v.floats[r]}
	case types.KindString:
		return types.Value{K: v.kind, S: v.strs[r]}
	}
	return types.Value{K: v.kind, I: v.ints[r]} // INT, BOOL
}

// set assigns row r a value of the vector's kind or NULL, and reports
// whether its value changed: an equal value is not written, exactly as a row
// store's compare-then-write leaves the old bits (a FLOAT -0.0 does not
// replace 0.0).
func (v *measVec) set(r int, x types.Value) bool {
	if x.IsNull() {
		if v.isNull(r) {
			return false
		}
		v.setNull(r)
		return true
	}
	was := !v.isNull(r)
	switch v.kind {
	case types.KindFloat:
		if was && v.floats[r] == x.F {
			return false // IEEE equality is types.Equal's on two FLOATs
		}
		v.floats[r] = x.F
	case types.KindString:
		if was && v.strs[r] == x.S {
			return false
		}
		v.strs[r] = x.S
	default: // INT, BOOL
		if was && v.ints[r] == x.I {
			return false
		}
		v.ints[r] = x.I
	}
	if !was {
		v.nulls.Clear(r)
	}
	return true
}

// appendNull adds a NULL row: a cell a rule inserted.
func (v *measVec) appendNull() {
	v.n++
	if v.kind == types.KindNull {
		return
	}
	if need := (v.n + 63) >> 6; len(v.nulls) < need {
		v.nulls = append(v.nulls, make(colstore.Bitmap, need-len(v.nulls))...)
	}
	v.nulls.Set(v.n - 1)
	switch v.kind {
	case types.KindFloat:
		v.floats = append(v.floats, 0)
	case types.KindString:
		v.strs = append(v.strs, "")
	default: // INT, BOOL
		v.ints = append(v.ints, 0)
	}
}

// column returns rows [lo, lo+n) as a column. It shares the vector's
// payload where the null bitmap allows (lo on a word boundary, or no
// NULLs), so it is valid until the next write.
func (v *measVec) column(lo, n int) *colstore.Column {
	if v.kind == types.KindNull {
		return allNull(n)
	}
	if lo&63 != 0 && v.nulls != nil {
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(lo + i)
		}
		return v.gather(idx)
	}
	c := &colstore.Column{Kind: v.kind, N: n}
	if v.nulls != nil {
		c.Nulls = v.nulls[lo>>6 : (lo+n+63)>>6]
	}
	switch v.kind {
	case types.KindFloat:
		c.Floats = v.floats[lo : lo+n : lo+n]
	case types.KindString:
		c.Strs = v.strs[lo : lo+n : lo+n]
	default: // INT, BOOL
		c.Ints = v.ints[lo : lo+n : lo+n]
	}
	return c
}

// gather returns rows idx[0], idx[1], ... as a fresh column (-1 reads
// NULL).
func (v *measVec) gather(idx []int32) *colstore.Column {
	return colstore.Gather(v.column(0, v.n), idx)
}

// setBulk is SetMeasureBulk's store: rows[i] takes slot k0+i of vec, with
// set's compare-then-write semantics, compared and written on the typed
// payloads. vec's values are of the vector's kind, or INT into a FLOAT
// vector, which widens them.
func (v *measVec) setBulk(rows []int32, vec *eval.ExprVec, k0 int) {
	for i, r32 := range rows {
		r, k := int(r32), k0+i
		if vec.NullAt(k) {
			if !v.isNull(r) {
				v.setNull(r)
			}
			continue
		}
		was := !v.isNull(r)
		switch {
		case v.kind == types.KindFloat:
			x := 0.0
			if vec.Kind == types.KindInt {
				x = float64(vec.Ints[k])
			} else {
				x = vec.Floats[k]
			}
			if was && v.floats[r] == x {
				continue // IEEE equality is types.Equal's on two FLOATs
			}
			v.floats[r] = x
		case v.kind == types.KindString:
			if was && v.strs[r] == vec.Strs[k] {
				continue
			}
			v.strs[r] = vec.Strs[k]
		default: // INT, BOOL
			if was && v.ints[r] == vec.Ints[k] {
				continue
			}
			v.ints[r] = vec.Ints[k]
		}
		if !was {
			v.nulls.Clear(r)
		}
	}
}

// allNull is an n-row column of NULLs.
func allNull(n int) *colstore.Column {
	c := &colstore.Column{Kind: types.KindNull, N: n, Nulls: colstore.NewBitmap(n)}
	for i := range c.Nulls {
		c.Nulls[i] = ^uint64(0)
	}
	return c
}
