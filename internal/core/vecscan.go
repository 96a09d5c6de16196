package core

import (
	"slices"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/types"
)

// Batch partition scan: scanFeed's per-row loop — match every row against
// every scan-mode aggregate instance, then evaluate the instance's argument
// expressions through compiled closures — is replaced, when every instance
// has a vectorized form, by one pass that reads the partition's rows out of
// a columnar image (frameImage, the bucket's cached image when it covers
// them) and then, per instance:
//
//  1. builds a selection of matching image rows from the instance's
//     declarative qualifier descriptors (the same types.Equal / NULL-
//     rejecting types.Compare tests the closure matchers run, evaluated on
//     values read back from the image — which holds the same bits);
//  2. runs one compute kernel per aggregate argument over the selection
//     (eval.CompileExprKernel — the same kernels the executor's projection
//     and group-by use);
//  3. bulk-feeds the argument vectors into a single-group batch accumulator
//     (eval.AggBatch) and unboxes it into the instance's ordinary Agg, so
//     result finalization runs unchanged.
//
// Rows feed in insertion order, so accumulator state — float addition order
// included — is bit-identical to the row scan's. The decision is
// all-or-nothing over the instance list: one predicate qualifier, cv()-
// bearing argument or batchless aggregate keeps the whole scan on the row
// path, and on the kernel domain the only runtime error is division by
// zero, raised with the row path's exact message.
// Ablation.DisableVectorizedExec ablates the layer.

// defaultVecMinRows keeps tiny batches on the row path: building the
// columnar image costs one extra pass over the rows, which only pays off
// once the kernel loops have enough rows to amortize it. Both batch
// engines — the aggregate scan here and the rule kernels in vecrules.go —
// share the cutoff, overridable via Ablation.VecMinRows.
const defaultVecMinRows = 64

// vecMinRows resolves the batch-size cutoff for this run.
func (opts *RunOptions) vecMinRows() int {
	if opts.Ablate.VecMinRows > 0 {
		return opts.Ablate.VecMinRows
	}
	return defaultVecMinRows
}

// vecQual kinds. vqOpaque is the zero value: a dimension only the closure
// matcher can test.
const (
	vqOpaque = iota
	vqStar
	vqPoint
	vqRange
)

// vecQual is the declarative form of one dimension qualifier: the kind plus
// the constants the closure matcher captured at instance-build time.
type vecQual struct {
	kind           int
	val            types.Value // vqPoint
	lo, hi         types.Value // vqRange
	loIncl, hiIncl bool
}

// vecScanFeed is the batch form of scanFeed. handled=false means no
// instance state was touched and the caller must run the row scan;
// handled=true means every instance's accumulator holds the scan's result
// (or err aborted the statement). Instances arrive freshly built with empty
// accumulators (scanFeed's contract), so replacing inst.acc with the
// unboxed batch state is exact.
func (fe *frameEval) vecScanFeed(insts []*aggInstance) (bool, error) {
	if fe.opts.Ablate.DisableVectorizedExec || fe.trackRefs || fe.m.IgnoreNav || fe.f.Len() < fe.opts.vecMinRows() {
		return false, nil
	}
	kerns := make([][]eval.ExprKernel, len(insts))
	for i, inst := range insts {
		for _, q := range inst.vq {
			if q.kind == vqOpaque {
				return false, nil
			}
		}
		if inst.star {
			continue
		}
		ks := make([]eval.ExprKernel, len(inst.args))
		for j, a := range inst.args {
			// Arguments reading cv(), cells or subqueries have no kernel,
			// so their row-path evaluation order (and errors) are preserved.
			k := eval.CompileExprKernel(fe.bs, a)
			if !k.Valid() {
				return false, nil
			}
			ks[j] = k
		}
		kerns[i] = ks
	}
	need := fe.imgNeed[:0]
	for i, inst := range insts {
		for di := range inst.vq {
			if inst.vq[di].kind != vqStar {
				need = append(need, fe.m.NPby+di)
			}
		}
		for _, k := range kerns[i] {
			need = k.ColRefs(need)
		}
	}
	fe.imgNeed = need
	img, base, err := fe.frameImage(need)
	if err != nil {
		return true, err
	}
	if img == nil {
		return false, nil // a key column mixes kinds
	}
	// Argument vector kinds are a property of the image; resolve them and
	// every batch accumulator before touching any instance, so a late
	// fallback leaves all accumulators untouched for the row scan.
	states := make([]eval.AggBatch, len(insts))
	for i, inst := range insts {
		var kinds []types.Kind
		if !inst.star {
			kinds = make([]types.Kind, len(kerns[i]))
			for j, k := range kerns[i] {
				kind, ok := k.OutKind(img, nil)
				if !ok || k.MinCols() > len(img.Cols) {
					return false, nil
				}
				kinds[j] = kind
			}
		}
		st, ok := eval.NewAggBatch(inst.node.Func, inst.star, kinds)
		if !ok {
			return false, nil
		}
		states[i] = st
	}
	n := fe.f.Len()
	selBuf := colstore.GetSel(n)
	defer colstore.PutSel(selBuf)
	zeros := make([]int32, n) // group-id vector: every selected row feeds group 0
	for i, inst := range insts {
		sel := fe.vecMatchSel(img, inst, base, base+n, (*selBuf)[:0])
		*selBuf = sel[:0]
		st := states[i]
		st.Grow(1)
		gids := zeros[:len(sel)]
		if inst.star {
			st.Feed(gids, nil)
		} else {
			vecs := make([]*eval.ExprVec, len(kerns[i]))
			for j := range kerns[i] {
				v, kerr := kerns[i][j].Run(img, nil, nil, sel)
				if kerr != nil {
					return true, kerr
				}
				vecs[j] = v
			}
			st.Feed(gids, vecs)
		}
		inst.acc = st.Unbox(0)
	}
	return true, nil
}

// image returns a columnar image of the current rows of fs — a run of one
// bucket's frames in bucket order — laid out frame after frame, in which the
// listed columns are materialised (any other column may be nil), and the
// first image row of each frame (offs[i]; the last entry is the row count).
// Key columns are gathered from the input once per run and cached on the
// bucket (see bucket.img) until an Insert changes the row set or another run
// replaces the cache. A measure column is the measure's vector (created on
// first use), sliced when the run is a contiguous stretch of the bucket's
// rows and gathered otherwise. A budgeted bucket reads its columns out of
// its stored rows instead. The image ticks once per row, like the row scans
// it replaces. A listed key column whose values mix kinds has no image: the
// returned table is nil. Otherwise it owns its Cols slice; callers treat
// images as immutable (WithExtra copies before extending), and a measure
// column is valid until the next write to its measure.
func (fe *frameEval) image(fs []*Frame, need []int) (*colstore.Table, []int, error) {
	b := fs[0].b
	if b.img == nil || !slices.Equal(b.imgRun, fs) {
		b.cacheRun(fs)
	}
	if err := fe.tickN(b.imgOff[len(fs)]); err != nil {
		return nil, nil, err
	}
	return b.table(need), b.imgOff, nil
}

// cacheRun makes fs the run the bucket's image cache covers, with fresh
// offsets and run slices, never reused: a caller may still hold the
// previous offsets, and fs may be the ITERATE loop's scratch (fe.active).
func (b *bucket) cacheRun(fs []*Frame) {
	offs := make([]int, len(fs)+1)
	contiguous := true
	for i, f := range fs {
		offs[i+1] = offs[i] + f.Len()
		contiguous = contiguous && len(f.ext) == 0 && f.base == fs[0].base+offs[i]
	}
	b.img, b.imgRun, b.imgOff = make([]*colstore.Column, b.nk()), slices.Clone(fs), offs
	b.imgLo, b.imgRows = fs[0].base, nil
	if !contiguous {
		b.imgRows = make([]int32, 0, offs[len(fs)])
		for _, f := range fs {
			for pos := range f.Len() {
				b.imgRows = append(b.imgRows, int32(f.brow(pos)))
			}
		}
	}
}

// mixedColumn stands, in a bucket's image cache, for a key column whose
// values mix kinds: it was examined, and has no image.
var mixedColumn = new(colstore.Column)

// table returns the image of the cached run with the listed columns, nil
// when a key column among them mixes kinds.
func (b *bucket) table(need []int) *colstore.Table {
	s := span{lo: b.imgLo, n: b.imgOff[len(b.imgOff)-1], rows: b.imgRows}
	t := &colstore.Table{NRows: s.n, Cols: make([]*colstore.Column, b.m.Schema.Len())}
	for _, c := range need {
		if t.Cols[c] != nil {
			continue
		}
		if c >= b.nk() {
			t.Cols[c] = b.column(c, s, true)
			continue
		}
		if b.img[c] == nil {
			if b.img[c] = b.column(c, s, true); b.img[c] == nil {
				b.img[c] = mixedColumn
			}
		}
		if b.img[c] == mixedColumn {
			return nil
		}
		t.Cols[c] = b.img[c]
	}
	return t
}

// frameImage returns a columnar image holding the current frame's rows at
// [base, base+Len()) with the listed columns materialised: the bucket's
// cached run when it covers the frame as a contiguous stretch of bucket
// rows (its measure columns are slices then), otherwise an image of the
// frame alone (which the following scans of the frame then share). As with
// image, img is nil when a listed key column mixes kinds.
func (fe *frameEval) frameImage(need []int) (img *colstore.Table, base int, err error) {
	f := fe.f
	b := f.b
	i, hit := slices.BinarySearchFunc(b.imgRun, f.ord, func(g *Frame, ord int) int { return g.ord - ord })
	if hit && b.img != nil && b.imgRows == nil {
		if err := fe.tickN(f.Len()); err != nil {
			return nil, 0, err
		}
		return b.table(need), b.imgOff[i], nil
	}
	img, _, err = fe.image(b.frames[f.ord:f.ord+1], need)
	return img, 0, err
}

// vecMatchSel appends the image rows in [lo, hi) matching inst's dimension
// qualifiers to sel, positions ascending. The tests are the scan matchers'
// own — types.Equal for points, the NULL-rejecting types.Compare interval
// test for ranges — evaluated on values read back from the image, which hold
// the same bits the row scan saw; matching is therefore exact, including
// NULL = NULL points, NaN bounds and cross-kind numeric comparisons.
func (fe *frameEval) vecMatchSel(img *colstore.Table, inst *aggInstance, lo, hi int, sel []int32) []int32 {
	npby := fe.m.NPby
outer:
	for r := lo; r < hi; r++ {
		for di := range inst.vq {
			q := &inst.vq[di]
			if q.kind == vqStar {
				continue
			}
			v := img.Cols[npby+di].Value(r) // interp-ok: dimension qualifier test reuses the row matcher's Equal/Compare verbatim
			switch q.kind {
			case vqPoint:
				if !types.Equal(v, q.val) {
					continue outer
				}
			case vqRange:
				if v.IsNull() || q.lo.IsNull() || q.hi.IsNull() {
					continue outer
				}
				cl := types.Compare(v, q.lo)
				if cl < 0 || (cl == 0 && !q.loIncl) {
					continue outer
				}
				ch := types.Compare(v, q.hi)
				if ch > 0 || (ch == 0 && !q.hiIncl) {
					continue outer
				}
			}
		}
		sel = append(sel, int32(r))
	}
	return sel
}
