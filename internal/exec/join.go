package exec

import (
	"fmt"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
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

// evalKeysInto computes a composite join key into buf (reused across rows
// by each caller, so steady-state probing does not allocate); ok is false
// when any key value is NULL (SQL equality never matches NULLs).
func evalKeysInto(buf []byte, ctx *eval.Context, row types.Row, keys []eval.CompiledExpr) ([]byte, bool, error) {
	ctx.Binding.Row = row
	buf = buf[:0]
	for _, k := range keys {
		v, err := k.Eval(ctx)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, false, nil
		}
		buf = types.AppendKey(buf, v)
	}
	return buf, true, nil
}

// joinTable is the hash-join build side: one map when built serially, or N
// hash-partitioned maps (partition = fnv32a(key)%N) when built in parallel,
// so build workers never share a write target and probes stay lock-free.
// Row-index lists are always in ascending row order — identical to the
// serial build — so probe output order matches the serial engine exactly.
type joinTable struct {
	parts []map[string][]int
}

// lookup probes with a byte key; the string conversions in the map index
// expressions are recognized by the compiler and do not allocate.
func (t *joinTable) lookup(k []byte) []int {
	if len(t.parts) == 1 {
		return t.parts[0][string(k)]
	}
	return t.parts[fnv32aBytes(k)%uint32(len(t.parts))][string(k)]
}

// joinEntry is one build row's key, staged during the partition phase.
type joinEntry struct {
	key string
	row int
}

// buildJoinTable hashes the build side. Large inputs run the morsel-parallel
// two-phase build: workers first partition each morsel's keys by
// fnv32a(key)%N into per-morsel buckets, then N partition tasks assemble
// their hash table by draining the buckets in morsel order (keeping row
// indices ascending). No global lock is ever taken.
func (ex *Executor) buildJoinTable(buildRes *Result, buildKeys []sqlast.Expr, buildKeysC []eval.CompiledExpr, outer *eval.Binding) (*joinTable, error) {
	ke := ex.vecKeyEnc(buildRes, buildKeys)
	nm := ex.morselCount(len(buildRes.Rows))
	if nm > 0 && !anyHasSubquery(buildKeys) {
		np := ex.workers()
		staged := make([][][]joinEntry, nm) // [morsel][partition][]entry
		wc := ex.workerCtxs(buildRes.Schema, outer)
		if _, err := ex.forEachMorsel("join-build", len(buildRes.Rows), func(w int, m morsel) error {
			ctx := wc.get(w)
			local := make([][]joinEntry, np)
			var buf []byte
			for i := m.Lo; i < m.Hi; i++ {
				var ok bool
				var err error
				if ke != nil {
					buf, ok = ke.keyInto(buf, i)
				} else {
					buf, ok, err = evalKeysInto(buf, ctx, buildRes.Rows[i], buildKeysC)
					if err != nil {
						return err
					}
				}
				if ok {
					k := string(buf) // stored in the table; must own its bytes
					p := fnv32a(k) % uint32(np)
					local[p] = append(local[p], joinEntry{key: k, row: i})
				}
			}
			staged[m.Idx] = local
			return nil
		}); err != nil {
			return nil, err
		}
		parts := make([]map[string][]int, np)
		if err := ex.parallelN(np, func(p int) error {
			mp := make(map[string][]int, len(buildRes.Rows)/np+1)
			for _, local := range staged {
				for _, e := range local[p] {
					mp[e.key] = append(mp[e.key], e.row)
				}
			}
			parts[p] = mp
			return nil
		}); err != nil {
			return nil, err
		}
		return &joinTable{parts: parts}, nil
	}

	bctx := ex.ctx(buildRes.Schema, nil, outer)
	table := make(map[string][]int, len(buildRes.Rows))
	var buf []byte
	for i, row := range buildRes.Rows {
		var ok bool
		var err error
		if ke != nil {
			buf, ok = ke.keyInto(buf, i)
		} else {
			buf, ok, err = evalKeysInto(buf, bctx, row, buildKeysC)
			if err != nil {
				return nil, err
			}
		}
		if ok {
			table[string(buf)] = append(table[string(buf)], i)
		}
	}
	return &joinTable{parts: []map[string][]int{table}}, nil
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

	table, err := ex.buildJoinTable(buildRes, buildKeys, buildKeysC, outer)
	if err != nil {
		return nil, err
	}

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

	// probeMorsel probes one row range against the (now read-only) table.
	// Each probe row's matches arrive in ascending build-row order, and
	// outer-join preservation is decided per probe row, so per-morsel
	// outputs stitched in morsel order equal the serial output exactly.
	pke := ex.vecKeyEnc(probeRes, probeKeys)
	type probeOut struct {
		rows     []types.Row
		probeIdx []int32 // probe-side image row per output row (carry only)
		buildIdx []int32 // build-side image row, -1 = null-extended (carry only)
	}
	probeMorsel := func(pctx, cctx *eval.Context, m morsel) (probeOut, error) {
		var out probeOut
		var kbuf []byte
		rs := &rowSlab{w: lw + rw}
		emit := func(row types.Row, pi int, bi int32) {
			rs.keep()
			out.rows = append(out.rows, row)
			if carry {
				out.probeIdx = append(out.probeIdx, resImgRow(probeRes, pi))
				out.buildIdx = append(out.buildIdx, bi)
			}
		}
		for i := m.Lo; i < m.Hi; i++ {
			probe := probeRes.Rows[i]
			var ok bool
			var err error
			if pke != nil {
				kbuf, ok = pke.keyInto(kbuf, i)
			} else {
				kbuf, ok, err = evalKeysInto(kbuf, pctx, probe, probeKeysC)
				if err != nil {
					return out, err
				}
			}
			matched := false
			if ok {
				for _, bi := range table.lookup(kbuf) {
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
					emit(row, i, resImgRow(buildRes, bi))
				}
			}
			if !matched && preserve {
				emit(combine(rs, probe, nil), i, -1)
			}
		}
		return out, nil
	}

	// joinResult assembles the output from morsel-ordered parts, gathering
	// the provenance image when carry is on.
	joinResult := func(parts []probeOut) *Result {
		total := 0
		for _, p := range parts {
			total += len(p.rows)
		}
		var rows []types.Row
		if total > 0 {
			rows = make([]types.Row, 0, total)
			for _, p := range parts {
				rows = append(rows, p.rows...)
			}
		}
		res := &Result{Schema: combined, Rows: rows}
		if !carry {
			return res
		}
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
		return res
	}

	nm := ex.morselCount(len(probeRes.Rows))
	if nm > 0 && !anyHasSubquery(probeKeys) && !sqlast.HasSubquery(n.Residual) {
		parts := make([]probeOut, nm)
		pwc := ex.workerCtxs(probeRes.Schema, outer)
		cwc := ex.workerCtxs(combined, outer)
		if _, err := ex.forEachMorsel("join-probe", len(probeRes.Rows), func(w int, m morsel) error {
			out, err := probeMorsel(pwc.get(w), cwc.get(w), m)
			if err != nil {
				return err
			}
			parts[m.Idx] = out
			return nil
		}); err != nil {
			return nil, err
		}
		return joinResult(parts), nil
	}

	pctx := ex.ctx(probeRes.Schema, nil, outer)
	cctx := ex.ctx(combined, nil, outer)
	out, err := probeMorsel(pctx, cctx, morsel{Lo: 0, Hi: len(probeRes.Rows)})
	if err != nil {
		return nil, err
	}
	return joinResult([]probeOut{out}), nil
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
