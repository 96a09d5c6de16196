package exec

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/core"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file is the executor side of the vectorized cold path. Scans over
// stored tables obtain a cached columnar image of the table (typed vectors
// with null bitmaps, see internal/colstore) and run plan-attached selection
// kernels over whole morsels of row positions instead of evaluating the
// predicate row by row. Results that remain a pure selection/permutation of
// an image carry provenance (Result.Img/RowIdx/ColMap) so downstream
// filters run kernels too, and join/group-by/partition builds encode their
// keys straight from the vectors.
//
// Everything here is byte-identical to the row-at-a-time engine: kernels
// replicate the compiled-closure semantics exactly (see eval.CompileSelKernel),
// filter outputs are the same row pointers in the same order, and key
// encoding uses colstore.Column.AppendKey, which is pinned to
// types.AppendKey's byte format. core.Ablation.DisableVectorizedExec ablates the
// whole layer.

// vecOK reports whether r carries well-formed columnar provenance: Rows[i]
// is image row RowIdx[i] (identity when RowIdx is nil, in which case the
// rows must be exactly the image's rows).
func vecOK(r *Result) bool {
	if r == nil || r.Img == nil {
		return false
	}
	if r.RowIdx != nil {
		return len(r.RowIdx) == len(r.Rows)
	}
	return len(r.Rows) == r.Img.NRows
}

// vecWidth is the number of schema ordinals the provenance can serve.
func vecWidth(r *Result) int {
	if r.ColMap != nil {
		return len(r.ColMap)
	}
	return len(r.Img.Cols)
}

// vecCol returns the image column backing schema ordinal ord, or nil.
func vecCol(r *Result, ord int) *colstore.Column {
	if ord < 0 || ord >= vecWidth(r) {
		return nil
	}
	if r.ColMap != nil {
		ord = r.ColMap[ord]
	}
	return r.Img.Cols[ord]
}

// vecRunnable reports whether kernel k can run over r's provenance.
func vecRunnable(r *Result, k eval.SelKernel) bool {
	return k.Valid() && vecOK(r) && k.MinCols() <= vecWidth(r)
}

// vecCovers reports whether r's provenance serves every schema column (the
// hash join gathers all of them into its output image).
func vecCovers(r *Result) bool {
	n := len(r.Schema.Cols)
	if vecWidth(r) < n {
		return false
	}
	for j := 0; j < n; j++ {
		if vecCol(r, j) == nil {
			return false
		}
	}
	return true
}

// resImgRow maps result position i to its image row (identity when RowIdx
// is nil).
func resImgRow(r *Result, i int) int32 {
	if r.RowIdx != nil {
		return r.RowIdx[i]
	}
	return int32(i)
}

// execScanVec is the vectorized table scan: an unfiltered scan publishes
// the table's columnar image as identity provenance; a filtered scan with a
// kernel runs it morsel-parallel. ok=false keeps the row path.
func (ex *Executor) execScanVec(n *plan.Scan) (*Result, error, bool) {
	if ex.Opts.Engine.DisableVectorizedExec {
		return nil, nil, false
	}
	im := ex.image(n.Table)
	img, tblRows := im.Columnar(), im.Rows
	if img == nil || img.NRows != len(tblRows) {
		return nil, nil, false
	}
	src := &Result{Schema: n.Schema(), Rows: tblRows, Img: img}
	if n.Filter == nil {
		rows := make([]types.Row, len(tblRows))
		copy(rows, tblRows)
		return &Result{Schema: n.Schema(), Rows: rows, Img: img}, nil, true
	}
	if !vecRunnable(src, n.FilterK) {
		return nil, nil, false
	}
	res, err := ex.vecFilter(src, n.FilterK, n.Schema())
	return res, err, true
}

// vecFilter selects from in's rows with kernel k. The output rows are the
// same row pointers the closure filter would emit, in the same order
// (positions are scanned ascending per morsel and morsels stitched in
// order), and carry composed provenance.
func (ex *Executor) vecFilter(in *Result, k eval.SelKernel, schema *eval.BoundSchema) (*Result, error) {
	n := len(in.Rows)
	runRange := func(lo, hi int) []int32 {
		selBuf := colstore.GetSel(hi - lo)
		defer colstore.PutSel(selBuf)
		sel := *selBuf
		for p := lo; p < hi; p++ {
			sel = append(sel, int32(p))
		}
		*selBuf = sel[:0]
		out := make([]int32, 0, hi-lo)
		return k.Run(in.Img, in.ColMap, in.RowIdx, sel, out)
	}
	var parts [][]int32
	if nm := ex.morselCount(n); nm > 0 {
		parts = make([][]int32, nm)
		if _, err := ex.forEachMorsel("filter", n, func(_ int, m morsel) error {
			parts[m.Idx] = runRange(m.Lo, m.Hi)
			return nil
		}); err != nil {
			return nil, err
		}
	} else {
		parts = [][]int32{runRange(0, n)}
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	// total==0 leaves Rows nil, matching the serial engine's append-built
	// empty result.
	var rows []types.Row
	var ridx []int32
	if total > 0 {
		rows = make([]types.Row, 0, total)
		ridx = make([]int32, 0, total)
		for _, part := range parts {
			for _, p := range part {
				rows = append(rows, in.Rows[p])
				if in.RowIdx != nil {
					ridx = append(ridx, in.RowIdx[p])
				} else {
					ridx = append(ridx, p)
				}
			}
		}
	} else {
		ridx = []int32{}
	}
	return &Result{Schema: schema, Rows: rows, Img: in.Img, RowIdx: ridx, ColMap: in.ColMap}, nil
}

// plainOrdinals resolves every expression to a schema ordinal, or reports
// false if any is not a plain unambiguous column reference.
func plainOrdinals(env *eval.BoundSchema, es []sqlast.Expr) ([]int, bool) {
	if len(es) == 0 {
		return nil, false
	}
	ords := make([]int, len(es))
	for i, e := range es {
		ord, ok := eval.PlainOrdinal(env, e)
		if !ok {
			return nil, false
		}
		ords[i] = ord
	}
	return ords, true
}

// keyEnc encodes composite join/group keys straight from columnar vectors.
// A nil *keyEnc means the caller keeps the closure-based encoding path.
type keyEnc struct {
	cols []*colstore.Column
	ridx []int32
}

// vecKeyEnc builds a columnar key encoder for keys over res, or nil when
// vectorized execution is off, res carries no usable provenance, or any key
// is not a plain column reference.
func (ex *Executor) vecKeyEnc(res *Result, keys []sqlast.Expr) *keyEnc {
	if ex.Opts.Engine.DisableVectorizedExec || !vecOK(res) {
		return nil
	}
	ords, ok := plainOrdinals(res.Schema, keys)
	if !ok {
		return nil
	}
	cols := make([]*colstore.Column, len(ords))
	for i, ord := range ords {
		c := vecCol(res, ord)
		if c == nil {
			return nil
		}
		cols[i] = c
	}
	return &keyEnc{cols: cols, ridx: res.RowIdx}
}

// imgRow maps result position i to its image row.
func (k *keyEnc) imgRow(i int) int {
	if k.ridx != nil {
		return int(k.ridx[i])
	}
	return i
}

// keyInto mirrors evalKeysInto: it appends the composite key for result
// position i to buf[:0]; ok is false when any key value is NULL.
func (k *keyEnc) keyInto(buf []byte, i int) ([]byte, bool) {
	r := k.imgRow(i)
	buf = buf[:0]
	for _, c := range k.cols {
		if c.IsNull(r) {
			return buf, false
		}
		buf = c.AppendKey(buf, r)
	}
	return buf, true
}

// groupKeyInto appends the composite grouping key for result position i to
// buf[:0]. Unlike join keys, grouping keys include NULLs.
func (k *keyEnc) groupKeyInto(buf []byte, i int) []byte {
	r := k.imgRow(i)
	buf = buf[:0]
	for _, c := range k.cols {
		buf = c.AppendKey(buf, r)
	}
	return buf
}

// vecColSource exposes res's leading nOrds columns as a core.ColSource for
// the spreadsheet partition build, or nil when vectorized execution is off
// or res carries no columnar provenance.
func (ex *Executor) vecColSource(res *Result, nOrds int) *core.ColSource {
	if ex.Opts.Engine.DisableVectorizedExec || !vecOK(res) {
		return nil
	}
	if nOrds > vecWidth(res) {
		nOrds = vecWidth(res)
	}
	if nOrds <= 0 {
		return nil
	}
	cols := make([]*colstore.Column, nOrds)
	any := false
	for i := range cols {
		if c := vecCol(res, i); c != nil {
			cols[i] = c
			any = true
		}
	}
	if !any {
		return nil
	}
	return &core.ColSource{Cols: cols, RowIdx: res.RowIdx}
}

// keyVals materializes the grouping key values for result position i (only
// called when a new group is inserted, so the steady-state loop stays free
// of per-row value construction).
func (k *keyEnc) keyVals(i int) types.Row {
	r := k.imgRow(i)
	out := make(types.Row, len(k.cols))
	for j, c := range k.cols {
		out[j] = c.Value(r) // interp-ok: boxed once per new group, not per row
	}
	return out
}
