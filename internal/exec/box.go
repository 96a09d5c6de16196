package exec

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// Positions first. An operator whose output is a selection, permutation or
// pairing of columnar images — the hash join when both inputs carry
// provenance, and a kernel filter, projection or sort over such a join —
// may leave Result.Rows nil: its output is the positions (RowIdx, or the
// image's own rows) over an image that serves every schema column. The
// consumers that read images (the hash join's build and probe, the kernel
// filter, the batch group-by, the batch projection and the sort keys) take
// that form as it is and box only when their own columnar path declines;
// every other consumer gets rows through Execute. boxer.row is the one place
// a row is boxed from an image, and boxed the one place a whole result is.

// Execute runs a plan node and returns its rows: a result whose rows were
// left unboxed is boxed here. outer supplies correlation bindings for
// subquery plans; nil at the top level.
func (ex *Executor) Execute(n plan.Node, outer *eval.Binding) (*Result, error) {
	res, err := ex.run(n, outer)
	if err != nil {
		return nil, err
	}
	return ex.boxed(res)
}

// unboxed reports whether r's rows are positions over its image only.
func (r *Result) unboxed() bool { return r.Rows == nil && r.Img != nil }

// Len is the number of rows of r, boxed or not.
func (r *Result) Len() int {
	switch {
	case !r.unboxed():
		return len(r.Rows)
	case r.RowIdx != nil:
		return len(r.RowIdx)
	}
	return r.Img.NRows
}

// boxer makes rows of one result: a boxed result's rows are copied, an
// unboxed one's are read from the image columns at each position.
type boxer struct {
	rows []types.Row
	cols []*colstore.Column
	ridx []int32
}

func newBoxer(r *Result) boxer {
	if !r.unboxed() {
		return boxer{rows: r.Rows}
	}
	b := boxer{cols: make([]*colstore.Column, len(r.Schema.Cols)), ridx: r.RowIdx}
	for j := range b.cols {
		b.cols[j] = vecCol(r, j)
	}
	return b
}

// row writes the values of result row i to dst (len(dst) is the width).
func (b *boxer) row(i int, dst types.Row) {
	if b.cols == nil {
		copy(dst, b.rows[i])
		return
	}
	r := i
	if b.ridx != nil {
		r = int(b.ridx[i])
	}
	for j, c := range b.cols {
		dst[j] = c.Value(r)
	}
}

// boxed returns r with its rows: r itself when they are there, else a new
// result over the same provenance whose rows are boxed from the image, a
// morsel at a time, each morsel's rows sharing one flat backing (every row
// a full-length sub-slice). r is never written, so a result two workers
// share can be boxed by both. An empty result stays with nil rows, as the
// row path's append-built results do.
func (ex *Executor) boxed(r *Result) (*Result, error) {
	if !r.unboxed() {
		return r, nil
	}
	n, w := r.Len(), len(r.Schema.Cols)
	out := &Result{Schema: r.Schema, Img: r.Img, RowIdx: r.RowIdx, ColMap: r.ColMap}
	if n == 0 {
		return out, nil
	}
	b := newBoxer(r)
	out.Rows = make([]types.Row, n)
	fill := func(lo, hi int) {
		flat := make([]types.Value, (hi-lo)*w)
		for i := lo; i < hi; i++ {
			row := flat[(i-lo)*w : (i-lo+1)*w : (i-lo+1)*w]
			b.row(i, row)
			out.Rows[i] = row
		}
	}
	if ex.morselCount(n) == 0 {
		fill(0, n)
		return out, nil
	}
	if _, _, err := ex.runMorsels(n, func(_ int, m morsel) error {
		fill(m.Lo, m.Hi)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
