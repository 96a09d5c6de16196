package exec

import (
	"fmt"
	"slices"
	"time"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wordkey"
)

// execJoin runs the join by the method the planner decided. Hash joins
// build one hash table on the non-preserved (or right) side; nested-loop
// joins evaluate the full ON condition per pair. The ANSI-join cost model
// the paper compares against (one hash table per join) lives here.
func (ex *Executor) execJoin(n *plan.Join, outer *eval.Binding) (*Result, error) {
	l, err := ex.run(n.L, outer)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(n.R, outer)
	if err != nil {
		return nil, err
	}
	switch n.Method {
	case plan.JoinHash:
		return ex.hashJoin(n, l, r, outer)
	case plan.JoinNestedLoop:
		return ex.nestedLoopJoin(n, l, r, outer)
	}
	return nil, fmt.Errorf("exec: join method %s not decided by the planner", n.Method)
}

// evalKeys evaluates a row's join keys into out, in key order up to the
// first NULL, and reports whether every key was non-NULL. A NULL equals
// nothing, so the keys after it are not evaluated (and raise no error).
func evalKeys(ctx *eval.Context, row types.Row, keysC []eval.CompiledExpr, out types.Row) (bool, error) {
	ctx.Binding.Row = row
	for j, k := range keysC {
		v, err := k.Eval(ctx)
		if err != nil || v.IsNull() {
			return false, err
		}
		out[j] = v
	}
	return true, nil
}

// matchable reports whether no key value of row (at ords) is NULL or NaN:
// SQL's = holds for neither, so such a build row joins nothing.
func matchable(row types.Row, ords []int) bool {
	for _, o := range ords {
		if v := row[o]; v.IsNull() || isNaN(v) {
			return false
		}
	}
	return true
}

// matchableAt is matchable for image row r of key columns cols.
func matchableAt(cols []*colstore.Column, r int) bool {
	for _, c := range cols {
		if c.IsNull(r) || c.Kind == types.KindFloat && c.Floats[r] != c.Floats[r] {
			return false
		}
	}
	return true
}

// isNaN reports whether v is a FLOAT NaN, which = never holds for although
// its key (types.AppendKey, a domain ordinal) matches itself.
func isNaN(v types.Value) bool { return v.K == types.KindFloat && v.F != v.F }

// joinBuild is the hash join's build side on key words (package wordkey),
// the scheme of the batch group-by and the spreadsheet access structure:
// each key has a domain over the build rows, a row's ordinals pack into one
// word (interned words when the fields pass 64 bits), and a word table
// gives each distinct word a dense id k whose build rows, ascending, are
// rows[offs[k]:offs[k+1]]. A row whose key holds a NULL or a NaN is in no
// list.
type joinBuild struct {
	rds   []wordkey.Reader
	lay   *wordkey.Layout
	slots []wordkey.Slot
	offs  []int32
	rows  []int32
}

// buildJoin keys the build side. A plain key column reads the image column
// where the side carries provenance (no row is read: res may be unboxed)
// and the boxed rows where it does not; computed keys are evaluated once per
// row into key rows, over res boxed. Key rows and words are computed per
// morsel on the pool; the domains and the one Intern pass that numbers the
// words run in row order, so ids and row lists are the same at every worker
// count.
func (ex *Executor) buildJoin(res *Result, keys []sqlast.Expr, keysC []eval.CompiledExpr, outer *eval.Binding) (*joinBuild, error) {
	start := time.Now()
	n, nk := res.Len(), len(keys)
	nm := 0
	if !anyHasSubquery(keys) {
		nm = ex.morselCount(n)
	}
	ords, cols := ex.keyCols(res, keys)
	if cols == nil {
		var err error
		if res, err = ex.boxed(res); err != nil {
			return nil, err
		}
	}
	rows := res.Rows
	if ords == nil {
		ords = seq(nk)
		wc := ex.workerCtxs(res.Schema, outer)
		parts, _, _, err := eachPart(ex, n, nm, func(w, lo, hi int) ([]types.Row, error) {
			flat := make([]types.Value, (hi-lo)*nk)
			krs := make([]types.Row, hi-lo)
			for i := range krs {
				krs[i] = flat[i*nk : (i+1)*nk : (i+1)*nk]
				if _, err := evalKeys(wc.get(w), res.Rows[lo+i], keysC, krs[i]); err != nil {
					return nil, err
				}
			}
			return krs, nil
		})
		if err != nil {
			return nil, err
		}
		rows = stitch(parts)
	}

	jb := &joinBuild{rds: make([]wordkey.Reader, nk)}
	width := make([]uint8, nk)
	for j := range jb.rds {
		var c *colstore.Column
		if cols != nil {
			c = cols[j]
		}
		jb.rds[j] = wordkey.NewReader(c, res.RowIdx, rows, n, ords[j])
		width[j] = wordkey.ExactWidth(jb.rds[j].Dom.Size())
	}
	jb.lay = wordkey.NewLayout(width)
	var pre []uint64
	if !jb.lay.Packed() {
		pre = wordkey.InternRows(rows, n, jb.rds, jb.lay)
	}
	parts, morsels, workers, err := eachPart(ex, n, nm, func(_, lo, hi int) ([]uint64, error) {
		words := make([]uint64, hi-lo)
		wordkey.RowWords(rows, jb.rds, jb.lay, pre, lo, make([]uint32, hi-lo), words)
		return words, nil
	})
	if err != nil {
		return nil, err
	}

	// Number the distinct words in first-seen order, counting each one's
	// rows into offs[id+1]; then lay the rows out by id, ascending.
	jb.slots = make([]wordkey.Slot, wordkey.TableSize(n))
	ids := make([]int32, n)
	offs := make([]int32, n+1)
	distinct, i := 0, 0
	for _, words := range parts {
		for _, w := range words {
			ids[i] = -1
			if cols != nil && matchableAt(cols, int(resImgRow(res, i))) || cols == nil && matchable(rows[i], ords) {
				id, found := wordkey.Intern(jb.slots, w, distinct)
				if !found {
					distinct++
				}
				offs[id+1]++
				ids[i] = int32(id)
			}
			i++
		}
	}
	jb.offs = offs[:distinct+1]
	for id := 1; id <= distinct; id++ {
		jb.offs[id] += jb.offs[id-1]
	}
	jb.rows = make([]int32, jb.offs[distinct])
	next := slices.Clone(jb.offs[:distinct])
	for i, id := range ids {
		if id >= 0 {
			jb.rows[next[id]] = int32(i)
			next[id]++
		}
	}
	ex.opLine("join-build", n, morsels, workers, start, fmt.Sprintf("keys=%s distinct=%d", keyNote(jb.lay), distinct))
	return jb, nil
}

// match returns the build rows whose key has the ordinals of tuple, in
// ascending order; buf is the byte-key scratch.
func (jb *joinBuild) match(tuple []uint32, buf *[]byte) []int32 {
	w, ok := jb.lay.Word(tuple, buf)
	if !ok {
		return nil
	}
	id, ok := wordkey.Find(jb.slots, w)
	if !ok {
		return nil
	}
	return jb.rows[jb.offs[id]:jb.offs[id+1]]
}

// seq is 0, 1, ..., n-1.
func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// hashJoin builds a word table on one side and probes it with the other.
// A morsel records only (probe row, build row | -1) pairs; a residual reads
// one scratch row per worker, which is not kept. Positions first: when both
// sides carry columnar provenance serving every schema column (carry), the
// output image gathers both sides' columns by the pairs (colstore.Gather is
// bit-exact, -1 yielding NULL), and the result's rows stay unboxed until a
// consumer needs them (box.go). Otherwise both sides are boxed and each
// morsel copies its pairs' rows into one flat backing.
func (ex *Executor) hashJoin(n *plan.Join, l, r *Result, outer *eval.Binding) (*Result, error) {
	carry := !ex.Opts.Engine.DisableVectorizedExec &&
		vecOK(l) && vecOK(r) && vecCovers(l) && vecCovers(r)
	var err error
	if !carry {
		if l, err = ex.boxed(l); err != nil {
			return nil, err
		}
		if r, err = ex.boxed(r); err != nil {
			return nil, err
		}
	}
	// Build on the right side except for RIGHT OUTER, which builds left and
	// probes right so the preserved side drives the output.
	buildRes, probeRes := r, l
	buildKeys, probeKeys := n.RightKeys, n.LeftKeys
	buildKeysC, probeKeysC := n.RightKeysC, n.LeftKeysC
	probeIsLeft := true
	if n.Type == sqlast.JoinRight {
		buildRes, probeRes = l, r
		buildKeys, probeKeys = n.LeftKeys, n.RightKeys
		buildKeysC, probeKeysC = n.LeftKeysC, n.RightKeysC
		probeIsLeft = false
	}

	jb, err := ex.buildJoin(buildRes, buildKeys, buildKeysC, outer)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	lw, rw := len(l.Schema.Cols), len(r.Schema.Cols)
	combined := n.Schema()
	// halves splits a combined row into its probe and build parts.
	halves := func(row types.Row) (probe, build types.Row) {
		if probeIsLeft {
			return row[:lw], row[lw:]
		}
		return row[lw:], row[:lw]
	}
	preserve := n.Type == sqlast.JoinLeft || n.Type == sqlast.JoinRight

	// A probe key reaches the build's ordinals from its image column a
	// morsel at a time (Domain.ColOrds, through the worker's dictionary
	// translations), or else from its boxed value (Domain.Ord): a plain
	// column of the probe rows, or the compiled key evaluated per row. A
	// value in no domain, a NULL and a NaN match nothing.
	nk := len(probeKeys)
	pOrds, pCols := ex.keyCols(probeRes, probeKeys)
	if pCols == nil {
		if probeRes, err = ex.boxed(probeRes); err != nil {
			return nil, err
		}
	}
	keyed := pOrds != nil
	if !keyed {
		pOrds = seq(nk)
	}
	np := probeRes.Len()
	xcs := make([]wordkey.XlatCache, ex.workers())
	pwc := ex.workerCtxs(probeRes.Schema, outer)
	cwc := ex.workerCtxs(combined, outer)
	nm := 0
	if !anyHasSubquery(probeKeys) && !sqlast.HasSubquery(n.Residual) {
		nm = ex.morselCount(np)
	}
	// The residual's scratch rows, one per worker, and the boxers that fill
	// them.
	var scratch []types.Row
	var pbox, bbox boxer
	if n.Residual != nil {
		scratch = make([]types.Row, ex.workers())
		pbox, bbox = newBoxer(probeRes), newBoxer(buildRes)
	}

	// Each morsel probes its row range against the (now read-only) build.
	// Each probe row's matches arrive in ascending build-row order, and
	// outer-join preservation is decided per probe row, so per-morsel
	// outputs stitched in morsel order equal the serial output exactly.
	type probeOut struct {
		probeIdx []int32 // probe row per output row
		buildIdx []int32 // build row, -1 = null-extended
		rows     []types.Row
		matches  int
	}
	parts, morsels, workers, err := eachPart(ex, np, nm, func(w, lo, hi int) (probeOut, error) {
		var out probeOut
		pctx, cctx := pwc.get(w), cwc.get(w)
		tuple := make([]uint32, nk)
		var kbuf []byte
		var colOrds [][]uint32
		if pCols != nil {
			img := probeRes.RowIdx
			if img == nil {
				img = seq32(lo, hi)
			} else {
				img = img[lo:hi]
			}
			colOrds = make([][]uint32, nk)
			for j, c := range pCols {
				colOrds[j] = make([]uint32, hi-lo)
				jb.rds[j].Dom.ColOrds(c, img, colOrds[j], &xcs[w])
			}
		}
		keyRow := make(types.Row, nk)
		for i := lo; i < hi; i++ {
			ok := true
			if colOrds != nil {
				for j := range tuple {
					tuple[j] = colOrds[j][i-lo]
					ok = ok && tuple[j] != wordkey.NoOrd
				}
			} else {
				kr := probeRes.Rows[i]
				if !keyed {
					var err error
					if ok, err = evalKeys(pctx, kr, probeKeysC, keyRow); err != nil {
						return out, err
					}
					kr = keyRow
				}
				for j := 0; ok && j < nk; j++ {
					tuple[j], ok = jb.rds[j].Dom.Ord(kr[pOrds[j]])
				}
			}
			var bis []int32
			if ok {
				bis = jb.match(tuple, &kbuf)
			}
			matched, probeBoxed := false, false
			for _, bi := range bis {
				if n.Residual != nil {
					if scratch[w] == nil {
						scratch[w] = make(types.Row, lw+rw)
					}
					row := scratch[w]
					pp, bp := halves(row)
					if !probeBoxed {
						pbox.row(i, pp)
						probeBoxed = true
					}
					bbox.row(int(bi), bp)
					cctx.Binding.Row = row
					pass, err := n.ResidualC.EvalBool(cctx)
					if err != nil {
						return out, err
					}
					if !pass {
						continue
					}
				}
				matched = true
				out.matches++
				out.probeIdx = append(out.probeIdx, int32(i))
				out.buildIdx = append(out.buildIdx, bi)
			}
			if !matched && preserve {
				out.probeIdx = append(out.probeIdx, int32(i))
				out.buildIdx = append(out.buildIdx, -1)
			}
		}
		if !carry {
			// The morsel's rows share one flat backing; each is a full-slice
			// expression, so no consumer can append into its neighbour.
			width := lw + rw
			flat := make([]types.Value, len(out.probeIdx)*width)
			out.rows = make([]types.Row, len(out.probeIdx))
			for k, pi := range out.probeIdx {
				row := flat[k*width : (k+1)*width : (k+1)*width]
				pp, bp := halves(row)
				copy(pp, probeRes.Rows[pi])
				if bi := out.buildIdx[k]; bi >= 0 {
					copy(bp, buildRes.Rows[bi])
				}
				out.rows[k] = row
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble the output from morsel-ordered parts: the gathered image of
	// the pairs, or the rows.
	total, matches := 0, 0
	for _, p := range parts {
		total += len(p.probeIdx)
		matches += p.matches
	}
	res := &Result{Schema: combined}
	emitted := "rows"
	if carry {
		emitted = "positions"
		probeIdx := make([]int32, 0, total)
		buildIdx := make([]int32, 0, total)
		for _, p := range parts {
			probeIdx = append(probeIdx, p.probeIdx...)
			buildIdx = append(buildIdx, p.buildIdx...)
		}
		pw, bw := len(probeRes.Schema.Cols), len(buildRes.Schema.Cols)
		poff, boff := 0, pw
		if !probeIsLeft {
			poff, boff = bw, 0
		}
		imgRows(probeRes, probeIdx)
		imgRows(buildRes, buildIdx)
		img := &colstore.Table{NRows: total, Cols: make([]*colstore.Column, pw+bw)}
		for j := 0; j < pw; j++ {
			img.Cols[poff+j] = colstore.Gather(vecCol(probeRes, j), probeIdx)
		}
		for j := 0; j < bw; j++ {
			img.Cols[boff+j] = colstore.Gather(vecCol(buildRes, j), buildIdx)
		}
		res.Img = img
	} else if total > 0 {
		res.Rows = make([]types.Row, 0, total)
		for _, p := range parts {
			res.Rows = append(res.Rows, p.rows...)
		}
	}
	ex.opLine("join-probe", np, morsels, workers, start, fmt.Sprintf("matches=%d out=%s", matches, emitted))
	return res, nil
}

// imgRows maps r's result positions pos to its image rows in place; -1
// stays -1.
func imgRows(r *Result, pos []int32) {
	if r.RowIdx == nil {
		return
	}
	for k, p := range pos {
		if p >= 0 {
			pos[k] = r.RowIdx[p]
		}
	}
}

// seq32 is lo, lo+1, ..., hi-1.
func seq32(lo, hi int) []int32 {
	s := make([]int32, hi-lo)
	for i := range s {
		s[i] = int32(lo + i)
	}
	return s
}

func (ex *Executor) nestedLoopJoin(n *plan.Join, l, r *Result, outer *eval.Binding) (*Result, error) {
	var err error
	if l, err = ex.boxed(l); err != nil {
		return nil, err
	}
	if r, err = ex.boxed(r); err != nil {
		return nil, err
	}
	lw, rw := len(l.Schema.Cols), len(r.Schema.Cols)
	combined := n.Schema()
	cctx := ex.ctx(combined, nil, outer)

	// Reassemble the full ON condition from keys + residual. The combined
	// condition only exists at exec time, so it is compiled here rather
	// than by the plan-side pass.
	on := n.Residual
	for i := range n.LeftKeys {
		on = andAll(on, &sqlast.Binary{Op: "=", L: n.LeftKeys[i], R: n.RightKeys[i]})
	}
	onC := eval.Compile(combined, on)

	var out []types.Row
	switch n.Type {
	case sqlast.JoinRight:
		for _, rr := range r.Rows {
			matched := false
			for _, lr := range l.Rows {
				row := append(append(make(types.Row, 0, lw+rw), lr...), rr...)
				pass := true
				if on != nil {
					cctx.Binding.Row = row
					var err error
					pass, err = onC.EvalBool(cctx)
					if err != nil {
						return nil, err
					}
				}
				if pass {
					matched = true
					out = append(out, row)
				}
			}
			if !matched {
				out = append(out, append(make(types.Row, lw, lw+rw), rr...))
			}
		}
	default:
		for _, lr := range l.Rows {
			matched := false
			for _, rr := range r.Rows {
				row := append(append(make(types.Row, 0, lw+rw), lr...), rr...)
				pass := true
				if on != nil {
					cctx.Binding.Row = row
					var err error
					pass, err = onC.EvalBool(cctx)
					if err != nil {
						return nil, err
					}
				}
				if pass {
					matched = true
					out = append(out, row)
				}
			}
			if !matched && n.Type == sqlast.JoinLeft {
				out = append(out, append(append(make(types.Row, 0, lw+rw), lr...), make(types.Row, rw)...))
			}
		}
	}
	return &Result{Schema: combined, Rows: out}, nil
}

func andAll(a, b sqlast.Expr) sqlast.Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &sqlast.Binary{Op: "AND", L: a, R: b}
}
