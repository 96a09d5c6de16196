package exec

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// Batch projection: when the input carries columnar provenance and every
// output expression has a supported compute kernel, each morsel evaluates
// whole output vectors (one kernel run per expression) instead of walking
// closures row by row. Output rows are boxed once from the vectors — the
// same values, bit for bit, the closure path would produce — and the output
// publishes a fresh columnar image built from the computed vectors, so a
// downstream filter, group-by or join stays on the vectorized path.
//
// The decision is all-or-nothing over the expression list: one unsupported
// expression keeps the whole operator on the row path, so any evaluation
// error surfaces from the same engine either way (on the kernel domain the
// only runtime error is division by zero, which aborts the statement
// identically at whole-vector and per-row granularity).

// execProjectVec attempts the batch projection. ok=false keeps the row path.
func (ex *Executor) execProjectVec(n *plan.Project, in *Result) (*Result, error, bool) {
	if ex.Opts.Engine.DisableVectorizedExec || !vecOK(in) {
		return nil, nil, false
	}
	if len(n.Exprs) == 0 || len(n.ExprsK) != len(n.Exprs) {
		return nil, nil, false
	}
	for _, k := range n.ExprsK {
		if !k.Valid() || k.MinCols() > vecWidth(in) || !k.Supported(in.Img, in.ColMap) {
			return nil, nil, false
		}
	}
	nr := len(in.Rows)
	w := len(n.Exprs)
	rows := make([]types.Row, nr)
	runRange := func(lo, hi int) ([]*eval.ExprVec, error) {
		selBuf := colstore.GetSel(hi - lo)
		defer colstore.PutSel(selBuf)
		sel := *selBuf
		for p := lo; p < hi; p++ {
			sel = append(sel, int32(p))
		}
		*selBuf = sel[:0]
		vecs := make([]*eval.ExprVec, w)
		for j := range n.ExprsK {
			v, err := n.ExprsK[j].Run(in.Img, in.ColMap, in.RowIdx, sel)
			if err != nil {
				return nil, err
			}
			vecs[j] = v
		}
		// One flat backing per morsel: rows are full-length sub-slices, so
		// per-slot writes cannot clobber neighbours.
		flat := make([]types.Value, (hi-lo)*w)
		for i := lo; i < hi; i++ {
			out := flat[(i-lo)*w : (i-lo+1)*w : (i-lo+1)*w]
			for j, v := range vecs {
				out[j] = v.BoxValue(i - lo)
			}
			rows[i] = out
		}
		return vecs, nil
	}
	var parts [][]*eval.ExprVec
	if nm := ex.morselCount(nr); nm > 0 {
		parts = make([][]*eval.ExprVec, nm)
		if _, err := ex.forEachMorsel("project", nr, func(_ int, m morsel) error {
			vecs, err := runRange(m.Lo, m.Hi)
			if err != nil {
				return err
			}
			parts[m.Idx] = vecs
			return nil
		}); err != nil {
			return nil, err, true
		}
	} else {
		vecs, err := runRange(0, nr)
		if err != nil {
			return nil, err, true
		}
		parts = [][]*eval.ExprVec{vecs}
	}
	img := &colstore.Table{NRows: nr, Cols: make([]*colstore.Column, w), Rows: rows}
	for j := 0; j < w; j++ {
		morselVecs := make([]*eval.ExprVec, len(parts))
		for mi := range parts {
			morselVecs[mi] = parts[mi][j]
		}
		img.Cols[j] = concatVecs(morselVecs, nr)
	}
	return &Result{Schema: n.Schema(), Rows: rows, Img: img}, nil, true
}

// concatVecs stitches per-morsel output vectors (all of one kernel, so one
// kind — support is a property of the image, not the morsel) into a single
// dense column, morsels in order.
func concatVecs(vecs []*eval.ExprVec, total int) *colstore.Column {
	if len(vecs) == 1 {
		return vecs[0].Column()
	}
	kind := vecs[0].Kind
	c := &colstore.Column{Kind: kind, N: total}
	if kind == types.KindNull {
		c.Nulls = colstore.NewBitmap(total)
		for i := 0; i < total; i++ {
			c.Nulls.Set(i)
		}
		return c
	}
	switch kind {
	case types.KindInt, types.KindBool:
		c.Ints = make([]int64, 0, total)
		for _, v := range vecs {
			c.Ints = append(c.Ints, v.Ints...)
		}
	case types.KindFloat:
		c.Floats = make([]float64, 0, total)
		for _, v := range vecs {
			c.Floats = append(c.Floats, v.Floats...)
		}
	case types.KindString:
		c.Strs = make([]string, 0, total)
		for _, v := range vecs {
			c.Strs = append(c.Strs, v.Strs...)
		}
	}
	base := 0
	for _, v := range vecs {
		if v.Nulls != nil {
			for k, isn := range v.Nulls {
				if isn {
					if c.Nulls == nil {
						c.Nulls = colstore.NewBitmap(total)
					}
					c.Nulls.Set(base + k)
				}
			}
		}
		base += v.Len()
	}
	return c
}
