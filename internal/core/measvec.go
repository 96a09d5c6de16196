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
// The vector holds one kind while every non-NULL row has it (the common
// case: a measure column read straight out of a typed image), and a kind tag
// per row once a write stores a second kind. A rule that turns an INT
// default into FLOAT (MEA (0 share)) passes through that form and leaves it
// as soon as the last INT row is overwritten: column collapses the tags back
// into a null bitmap, so the measure is one typed column again. Only a
// column that really ends up holding two kinds has no column form, and is
// read per cell.

// measVec is one measure's values over a bucket's rows.
type measVec struct {
	n int
	// kind is the kind of every non-NULL row while tags is nil (KindNull:
	// every row is NULL); nulls marks the NULL rows then (nil: none).
	kind  types.Kind
	nulls colstore.Bitmap
	// tags holds every row's kind once two kinds are stored.
	tags []types.Kind
	// The payloads, each allocated on the first store of its kinds; a row's
	// slot in the arrays of other kinds is stale and never read.
	ints   []int64 // INT and BOOL
	floats []float64
	strs   []string
	// count is the number of rows of each kind.
	count [types.KindBool + 1]int
}

// newMeasVec gathers input column ord for a bucket's built rows (input
// positions in) and NULL for its nIns inserted ones.
func newMeasVec(src *input, in []int32, ord, nIns int) *measVec {
	n := len(in) + nIns
	v := &measVec{n: n}
	c := src.cols[ord]
	if c == nil {
		v.count[types.KindNull] = n
		for r, p := range in {
			v.store(r, src.rows[p][ord])
		}
		return v
	}
	v.kind = c.Kind
	if c.Kind == types.KindNull {
		v.count[types.KindNull] = n
		return v
	}
	v.alloc(c.Kind)
	nulls := 0
	for r, p := range in {
		i := src.imgRow(p)
		if c.IsNull(i) {
			v.setNullBit(r)
			nulls++
			continue
		}
		switch c.Kind {
		case types.KindFloat:
			v.floats[r] = c.Floats[i]
		case types.KindString:
			v.strs[r] = c.Str(i)
		default: // INT, BOOL
			v.ints[r] = c.Ints[i]
		}
	}
	for r := len(in); r < n; r++ {
		v.setNullBit(r)
		nulls++
	}
	v.count[types.KindNull], v.count[c.Kind] = nulls, n-nulls
	return v
}

// clone returns an independent copy of v.
func (v *measVec) clone() *measVec {
	cp := *v
	cp.nulls, cp.tags = slices.Clone(v.nulls), slices.Clone(v.tags)
	cp.ints, cp.floats, cp.strs = slices.Clone(v.ints), slices.Clone(v.floats), slices.Clone(v.strs)
	return &cp
}

// alloc makes room for kind's payload.
func (v *measVec) alloc(k types.Kind) {
	switch k {
	case types.KindInt, types.KindBool:
		if v.ints == nil {
			v.ints = make([]int64, v.n)
		}
	case types.KindFloat:
		if v.floats == nil {
			v.floats = make([]float64, v.n)
		}
	case types.KindString:
		if v.strs == nil {
			v.strs = make([]string, v.n)
		}
	}
}

// setNullBit marks row r NULL in the one-kind form.
func (v *measVec) setNullBit(r int) {
	if v.nulls == nil {
		v.nulls = colstore.NewBitmap(v.n)
	}
	v.nulls.Set(r)
}

// kindAt is row r's kind.
func (v *measVec) kindAt(r int) types.Kind {
	switch {
	case v.tags != nil:
		return v.tags[r]
	case v.nulls != nil && v.nulls.Get(r):
		return types.KindNull
	}
	return v.kind
}

// value is row r's value.
func (v *measVec) value(r int) types.Value {
	switch k := v.kindAt(r); k {
	case types.KindInt, types.KindBool:
		return types.Value{K: k, I: v.ints[r]}
	case types.KindFloat:
		return types.Value{K: k, F: v.floats[r]}
	case types.KindString:
		return types.Value{K: k, S: v.strs[r]}
	}
	return types.Null
}

// set assigns row r and reports whether its value changed: an equal value
// of the same kind is not written, exactly as a row store's compare-then-
// write leaves the old bits (a FLOAT -0.0 does not replace 0.0).
func (v *measVec) set(r int, x types.Value) bool {
	if v.kindAt(r) == x.K {
		switch x.K {
		case types.KindNull:
			return false
		case types.KindFloat:
			if v.floats[r] == x.F {
				return false // IEEE equality is types.Equal's on two FLOATs
			}
		case types.KindString:
			if v.strs[r] == x.S {
				return false
			}
		default: // INT, BOOL
			if v.ints[r] == x.I {
				return false
			}
		}
	}
	v.store(r, x)
	return true
}

// store writes x to row r unconditionally.
func (v *measVec) store(r int, x types.Value) {
	v.admit(x.K)
	old := v.kindAt(r)
	switch x.K {
	case types.KindInt, types.KindBool:
		v.ints[r] = x.I
	case types.KindFloat:
		v.floats[r] = x.F
	case types.KindString:
		v.strs[r] = x.S
	}
	if old != x.K {
		v.mark(r, old, x.K)
	}
}

// admit readies the vector for values of kind k: a vector of NULLs takes k
// as its one kind, one of another kind takes kind tags.
func (v *measVec) admit(k types.Kind) {
	if k == types.KindNull {
		return
	}
	if v.tags == nil && v.kind != k {
		if v.kind == types.KindNull {
			v.kind, v.nulls = k, colstore.NewBitmap(v.n)
			for i := range v.nulls {
				v.nulls[i] = ^uint64(0)
			}
		} else {
			v.toTags()
		}
	}
	v.alloc(k)
}

// mark records that row r, of kind old, now holds kind k: in the one-kind
// form k is NULL or the vector's kind.
func (v *measVec) mark(r int, old, k types.Kind) {
	switch {
	case v.tags != nil:
		v.tags[r] = k
	case k == types.KindNull:
		v.setNullBit(r)
	default:
		v.nulls.Clear(r)
	}
	v.count[old]--
	v.count[k]++
}

// toTags moves the one-kind form to a kind tag per row.
func (v *measVec) toTags() {
	tags := make([]types.Kind, v.n)
	for r := range tags {
		tags[r] = v.kindAt(r)
	}
	v.tags, v.nulls = tags, nil
}

// appendNull adds a NULL row: a cell a rule inserted.
func (v *measVec) appendNull() {
	v.n++
	v.count[types.KindNull]++
	switch {
	case v.tags != nil:
		v.tags = append(v.tags, types.KindNull)
	case v.kind != types.KindNull:
		if need := (v.n + 63) >> 6; len(v.nulls) < need {
			v.nulls = append(v.nulls, make(colstore.Bitmap, need-len(v.nulls))...)
		}
		v.nulls.Set(v.n - 1)
	}
	if v.ints != nil {
		v.ints = append(v.ints, 0)
	}
	if v.floats != nil {
		v.floats = append(v.floats, 0)
	}
	if v.strs != nil {
		v.strs = append(v.strs, "")
	}
}

// oneKind returns the vector to the one-kind form when at most one kind of
// non-NULL value is left, and reports whether it is in that form.
func (v *measVec) oneKind() bool {
	if v.tags == nil {
		return true
	}
	k := types.KindNull
	for kk := types.KindInt; kk <= types.KindBool; kk++ {
		if v.count[kk] == 0 {
			continue
		}
		if k != types.KindNull {
			return false
		}
		k = kk
	}
	v.kind, v.nulls = k, nil
	if k != types.KindNull && v.count[types.KindNull] > 0 {
		v.nulls = colstore.NewBitmap(v.n)
		for r, t := range v.tags {
			if t == types.KindNull {
				v.nulls.Set(r)
			}
		}
	}
	v.tags = nil
	if k != types.KindInt && k != types.KindBool {
		v.ints = nil
	}
	if k != types.KindFloat {
		v.floats = nil
	}
	if k != types.KindString {
		v.strs = nil
	}
	return true
}

// column returns rows [lo, lo+n) as a column, nil when the vector mixes
// kinds. It shares the vector's payload where the null bitmap allows (lo on
// a word boundary, or no NULLs), so it is valid until the next write.
func (v *measVec) column(lo, n int) *colstore.Column {
	if !v.oneKind() {
		return nil
	}
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
// NULL), nil when the vector mixes kinds.
func (v *measVec) gather(idx []int32) *colstore.Column {
	c := v.column(0, v.n)
	if c == nil {
		return nil
	}
	return colstore.Gather(c, idx)
}

// setBulk is SetMeasureBulk's store: rows[i] takes slot k0+i of vec, with
// set's compare-then-write semantics, compared and written on the typed
// payloads.
func (v *measVec) setBulk(rows []int32, vec *eval.ExprVec, k0 int) {
	kind := vec.Kind
	v.admit(kind)
	for i, r32 := range rows {
		r, k := int(r32), k0+i
		old := v.kindAt(r)
		if vec.NullAt(k) {
			if old != types.KindNull {
				v.mark(r, old, types.KindNull)
			}
			continue
		}
		switch kind {
		case types.KindFloat:
			if old == kind && v.floats[r] == vec.Floats[k] {
				continue // IEEE equality is types.Equal's on two FLOATs
			}
			v.floats[r] = vec.Floats[k]
		case types.KindString:
			if old == kind && v.strs[r] == vec.Strs[k] {
				continue
			}
			v.strs[r] = vec.Strs[k]
		default: // INT, BOOL
			if old == kind && v.ints[r] == vec.Ints[k] {
				continue
			}
			v.ints[r] = vec.Ints[k]
		}
		if old != kind {
			v.mark(r, old, kind)
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
