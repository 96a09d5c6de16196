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

// execJoin dispatches on join type and method. Hash joins build one hash
// table on the non-preserved (or right) side; nested-loop joins evaluate
// the full ON condition per pair. The ANSI-join cost model the paper
// compares against (one hash table per join) lives here.
func (ex *Executor) execJoin(n *plan.Join, outer *eval.Binding) (*Result, error) {
	l, err := ex.Execute(n.L, outer)
	if err != nil {
		return nil, err
	}
	r, err := ex.Execute(n.R, outer)
	if err != nil {
		return nil, err
	}
	method := n.Method
	if method == plan.JoinAuto {
		if len(n.LeftKeys) > 0 {
			method = plan.JoinHash
		} else {
			method = plan.JoinNestedLoop
		}
	}
	if method == plan.JoinHash && len(n.LeftKeys) == 0 {
		method = plan.JoinNestedLoop
	}
	switch method {
	case plan.JoinHash:
		return ex.hashJoin(n, l, r, outer)
	case plan.JoinNestedLoop:
		return ex.nestedLoopJoin(n, l, r, outer)
	}
	return nil, fmt.Errorf("exec: unknown join method")
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
// where the side carries provenance and the boxed rows where it does not;
// computed keys are evaluated once per row into key rows. Key rows and
// words are computed per morsel on the pool; the domains and the one Intern
// pass that numbers the words run in row order, so ids and row lists are
// the same at every worker count.
func (ex *Executor) buildJoin(res *Result, keys []sqlast.Expr, keysC []eval.CompiledExpr, outer *eval.Binding) (*joinBuild, error) {
	start := time.Now()
	n, nk := len(res.Rows), len(keys)
	nm := 0
	if !anyHasSubquery(keys) {
		nm = ex.morselCount(n)
	}
	ords, cols := ex.keyCols(res, keys)
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
		jb.rds[j] = wordkey.NewReader(c, res.RowIdx, rows, ords[j])
		width[j] = wordkey.ExactWidth(jb.rds[j].Dom.Size())
	}
	jb.lay = wordkey.NewLayout(width)
	var pre []uint64
	if !jb.lay.Packed() {
		pre = wordkey.InternRows(rows, jb.rds, jb.lay)
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
			if matchable(rows[i], ords) {
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

// rowSlab carves a probe morsel's combined rows out of chunks that grow
// from 8 to 256 rows, so an output row is not an allocation of its own.
// Every row has cap == len (a full-slice expression), so no consumer can
// append into its neighbour; a row the residual rejects gives its space to
// the next one.
type rowSlab struct {
	w     int
	free  []types.Value
	chunk int
}

// next is the space of the next row, free until keep takes it.
func (rs *rowSlab) next() types.Row {
	if len(rs.free) < rs.w {
		rs.chunk = min(max(2*rs.chunk, 8), 256)
		rs.free = make([]types.Value, rs.w*rs.chunk)
	}
	return rs.free[:rs.w:rs.w]
}

// keep takes the row next returned.
func (rs *rowSlab) keep() { rs.free = rs.free[rs.w:] }

func (ex *Executor) hashJoin(n *plan.Join, l, r *Result, outer *eval.Binding) (*Result, error) {
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
	// combine lays probe and build (nil: NULLs) side by side in the next
	// row space of rs, which the row takes only when the caller keeps it.
	combine := func(rs *rowSlab, probe, build types.Row) types.Row {
		row := rs.next()
		left, right := row[:lw], row[lw:]
		if !probeIsLeft {
			left, right = right, left
		}
		copy(left, probe)
		if build == nil {
			clear(right)
		} else {
			copy(right, build)
		}
		return row
	}
	preserve := n.Type == sqlast.JoinLeft || n.Type == sqlast.JoinRight

	// carry: when both sides arrive with columnar provenance covering every
	// schema column, each emitted row also records its (probe image row,
	// build image row | -1) pair, and the output gathers both sides' columns
	// into a fresh image — so post-join filters, projections and group-bys
	// stay on the vectorized path instead of re-boxing. The boxed rows are
	// built exactly as before; the image is provenance over the same values
	// (colstore.Gather is bit-exact, with -1 yielding the NULL slots the
	// null-extended side's zero values already hold).
	carry := !ex.Opts.Engine.DisableVectorizedExec &&
		vecOK(probeRes) && vecOK(buildRes) && vecCovers(probeRes) && vecCovers(buildRes)

	// A probe key reaches the build's ordinals from its image column a
	// morsel at a time (Domain.ColOrds, through the worker's dictionary
	// translations), or else from its boxed value (Domain.Ord): a plain
	// column of the probe rows, or the compiled key evaluated per row. A
	// value in no domain, a NULL and a NaN match nothing.
	nk := len(probeKeys)
	pOrds, pCols := ex.keyCols(probeRes, probeKeys)
	keyed := pOrds != nil
	if !keyed {
		pOrds = seq(nk)
	}
	xcs := make([]wordkey.XlatCache, ex.workers())
	pwc := ex.workerCtxs(probeRes.Schema, outer)
	cwc := ex.workerCtxs(combined, outer)
	nm := 0
	if !anyHasSubquery(probeKeys) && !sqlast.HasSubquery(n.Residual) {
		nm = ex.morselCount(len(probeRes.Rows))
	}

	// Each morsel probes its row range against the (now read-only) build.
	// Each probe row's matches arrive in ascending build-row order, and
	// outer-join preservation is decided per probe row, so per-morsel
	// outputs stitched in morsel order equal the serial output exactly.
	type probeOut struct {
		rows     []types.Row
		probeIdx []int32 // probe-side image row per output row (carry only)
		buildIdx []int32 // build-side image row, -1 = null-extended (carry only)
		matches  int
	}
	parts, morsels, workers, err := eachPart(ex, len(probeRes.Rows), nm, func(w, lo, hi int) (probeOut, error) {
		var out probeOut
		pctx, cctx := pwc.get(w), cwc.get(w)
		rs := &rowSlab{w: lw + rw}
		emit := func(row types.Row, pi int, bi int32) {
			rs.keep()
			out.rows = append(out.rows, row)
			if carry {
				out.probeIdx = append(out.probeIdx, resImgRow(probeRes, pi))
				out.buildIdx = append(out.buildIdx, bi)
			}
		}
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
			probe := probeRes.Rows[i]
			ok := true
			if colOrds != nil {
				for j := range tuple {
					tuple[j] = colOrds[j][i-lo]
					ok = ok && tuple[j] != wordkey.NoOrd
				}
			} else {
				kr := probe
				if !keyed {
					var err error
					if ok, err = evalKeys(pctx, probe, probeKeysC, keyRow); err != nil {
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
			matched := false
			for _, bi := range bis {
				row := combine(rs, probe, buildRes.Rows[bi])
				if n.Residual != nil {
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
				emit(row, i, resImgRow(buildRes, int(bi)))
			}
			if !matched && preserve {
				emit(combine(rs, probe, nil), i, -1)
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble the output from morsel-ordered parts, gathering the
	// provenance image when carry is on.
	total, matches := 0, 0
	for _, p := range parts {
		total += len(p.rows)
		matches += p.matches
	}
	var rows []types.Row
	if total > 0 {
		rows = make([]types.Row, 0, total)
		for _, p := range parts {
			rows = append(rows, p.rows...)
		}
	}
	res := &Result{Schema: combined, Rows: rows}
	if carry {
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
		img := &colstore.Table{NRows: total, Cols: make([]*colstore.Column, pw+bw), Rows: rows}
		for j := 0; j < pw; j++ {
			img.Cols[poff+j] = colstore.Gather(vecCol(probeRes, j), probeIdx)
		}
		for j := 0; j < bw; j++ {
			img.Cols[boff+j] = colstore.Gather(vecCol(buildRes, j), buildIdx)
		}
		res.Img = img
	}
	ex.opLine("join-probe", len(probeRes.Rows), morsels, workers, start, fmt.Sprintf("matches=%d", matches))
	return res, nil
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
