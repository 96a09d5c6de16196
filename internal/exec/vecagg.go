package exec

import (
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wordkey"
)

// Batch aggregation: when the group-by input carries columnar provenance,
// its grouping keys are plain columns, and every aggregate argument has a
// supported compute kernel, the group-by runs on packed key words and typed
// aggregate state instead of a per-row loop over boxed rows:
//
//  1. Key words. Every key column gets a domain over the whole input
//     (package wordkey): a dictionary column's codes, which are global to
//     the image, an INT column's range, or one serial pass numbering any
//     other values. A row's key is its ordinals packed into one word, so
//     every morsel agrees on every word. Fields that pass 64 bits intern
//     each row's tuple to a dense word up front, serially: the one
//     fallback, keys=bytes(overflow).
//  2. Partials. Each morsel finds its rows' groups in a local word table
//     (dense ids in first-seen order), runs each aggregate argument's
//     kernel once, and feeds the typed batch accumulators (aggs.SumBatch &
//     co.) by group id, rows in ascending order.
//  3. Merge. The partials merge in morsel order, by word, into one table;
//     each aggregate's partial states fold into the global state with the
//     typed Merge, which replicates aggs.Merger bit for bit. A group's first
//     occurrence lies in the earliest morsel containing it, so global ids
//     come out in global first-seen order.
//  4. Rows. Key values are boxed once per output group, from its first-seen
//     image row (so -0.0 before 0.0 keeps the spelling the row path keeps),
//     and aggregate results are read from the typed state into one flat
//     row backing.
//
// The output is bit-identical (float accumulation and merge order included)
// to the row path's at every worker count: both accumulate a morsel's rows
// in order and merge morsel partials in morsel order.

// vecAggSpec is one aggregate's vectorized plan over a concrete image: its
// argument kernels and the kind of each argument vector (decided per image;
// kinds the aggregate's row accumulator skips feed nothing).
type vecAggSpec struct {
	name  string
	star  bool
	kerns []eval.ExprKernel
	kinds []types.Kind
}

// vecGroupPlan is the batch aggregation plan for one group-by over one
// input: the aggregate specs and the key words. nil means the row path
// runs.
type vecGroupPlan struct {
	specs []vecAggSpec
	keys  []*colstore.Column
	ridx  []int32
	rds   []wordkey.Reader
	lay   *wordkey.Layout
	// pre holds every input row's interned word when the layout is
	// byte-keyed; nil when packed.
	pre []uint64
	// maxGroups bounds the groups of any run of rows: the product of the
	// key domains' sizes, so a morsel's word table is sized for the groups
	// it can hold, not for one per row.
	maxGroups int
}

// vecGroupPlan builds the batch plan, or nil when any part of the group-by
// has no vectorized form: provenance missing, keys not plain columns, an
// argument kernel missing or unsupported over this image (so shapes the row
// path rejects — e.g. strings under SUM's argument arithmetic — fall back
// whole-operator and raise the identical error), or an aggregate without a
// batch accumulator.
func (ex *Executor) vecGroupPlan(n *plan.GroupBy, in *Result) *vecGroupPlan {
	if ex.Opts.Engine.DisableVectorizedExec || !vecOK(in) {
		return nil
	}
	ords, cols := ex.keyCols(in, n.Keys)
	if len(n.Keys) > 0 && cols == nil {
		return nil
	}
	vp := &vecGroupPlan{specs: make([]vecAggSpec, len(n.Aggs))}
	for i, spec := range n.Aggs {
		s := vecAggSpec{name: spec.Call.Name, star: spec.Call.Star}
		if !s.star {
			args := spec.Call.Args
			if i >= len(n.ArgK) || len(n.ArgK[i]) != len(args) {
				return nil
			}
			s.kerns = n.ArgK[i]
			s.kinds = make([]types.Kind, len(args))
			for j := range args {
				k := s.kerns[j]
				if !k.Valid() || k.MinCols() > vecWidth(in) {
					return nil
				}
				kind, ok := k.OutKind(in.Img, in.ColMap)
				if !ok {
					return nil
				}
				s.kinds[j] = kind
			}
		}
		if _, ok := eval.NewAggBatch(s.name, s.star, s.kinds); !ok {
			return nil
		}
		vp.specs[i] = s
	}
	vp.keys, vp.ridx = cols, in.RowIdx
	width := make([]uint8, len(cols))
	vp.maxGroups = 1
	for j, c := range cols {
		vp.rds = append(vp.rds, wordkey.NewReader(c, in.RowIdx, nil, in.Len(), ords[j]))
		size := vp.rds[j].Dom.Size()
		width[j] = wordkey.ExactWidth(size)
		vp.maxGroups = int(min(uint64(vp.maxGroups)*uint64(size), 1<<31))
	}
	vp.lay = wordkey.NewLayout(width)
	if !vp.lay.Packed() {
		vp.pre = wordkey.InternRows(nil, in.Len(), vp.rds, vp.lay)
	}
	return vp
}

// keyNote says how a layout keys its tuples, for EXPLAIN ANALYZE.
func keyNote(lay *wordkey.Layout) string {
	if lay.Packed() {
		return "packed"
	}
	return "bytes(overflow)"
}

// groupState is the groups of a run of input rows: each group's first
// result position, in first-seen order, and the aggregates' typed state
// addressed by group id. A morsel's partial also keeps each group's word.
type groupState struct {
	words  []uint64
	first  []int32
	states []eval.AggBatch
}

// newStates makes the aggregates' batch states for ng groups.
func (vp *vecGroupPlan) newStates(ng int) []eval.AggBatch {
	states := make([]eval.AggBatch, len(vp.specs))
	for i := range vp.specs {
		s := &vp.specs[i]
		states[i], _ = eval.NewAggBatch(s.name, s.star, s.kinds)
		states[i].Grow(ng)
	}
	return states
}

// accumulate aggregates rows [lo, hi) of in into a partial. Rows feed in
// ascending order, so per-group accumulator state — float addition order
// included — matches the row path's exactly.
func (vp *vecGroupPlan) accumulate(in *Result, lo, hi int) (*groupState, error) {
	m := hi - lo
	selBuf := colstore.GetSel(m)
	defer colstore.PutSel(selBuf)
	sel := *selBuf
	for p := lo; p < hi; p++ {
		sel = append(sel, int32(p))
	}
	*selBuf = sel[:0]

	words := make([]uint64, m)
	scratch := make([]uint32, m)
	wordkey.RowWords(nil, vp.rds, vp.lay, vp.pre, lo, scratch, words)
	ng := min(m, vp.maxGroups)
	tbl := make([]wordkey.Slot, wordkey.TableSize(ng))
	gids := make([]int32, m)
	p := &groupState{words: make([]uint64, 0, ng), first: make([]int32, 0, ng)}
	for k, w := range words {
		g, found := wordkey.Intern(tbl, w, len(p.words))
		if !found {
			p.words = append(p.words, w)
			p.first = append(p.first, int32(lo+k))
		}
		gids[k] = int32(g)
	}

	p.states = vp.newStates(len(p.words))
	for i := range vp.specs {
		s := &vp.specs[i]
		if s.star {
			p.states[i].Feed(gids, nil)
			continue
		}
		vecs := make([]*eval.ExprVec, len(s.kerns))
		for j := range s.kerns {
			v, err := s.kerns[j].Run(in.Img, in.ColMap, in.RowIdx, sel)
			if err != nil {
				return nil, err
			}
			vecs[j] = v
		}
		p.states[i].Feed(gids, vecs)
	}
	return p, nil
}

// merge folds the partials, in morsel order, into one group state: a
// group's global id is the order of its first occurrence, and its state is
// its first partial's with every later partial's folded in.
func (vp *vecGroupPlan) merge(parts []*groupState) *groupState {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, p := range parts {
		total += len(p.words)
	}
	tbl := make([]wordkey.Slot, wordkey.TableSize(total))
	out := &groupState{first: make([]int32, 0, total)}
	into := make([][]int32, len(parts))
	for pi, p := range parts {
		into[pi] = make([]int32, len(p.words))
		for sg, w := range p.words {
			g, found := wordkey.Intern(tbl, w, len(out.first))
			if !found {
				out.first = append(out.first, p.first[sg])
			}
			into[pi][sg] = int32(g)
		}
	}
	out.states = vp.newStates(len(out.first))
	for i, st := range out.states {
		for pi, p := range parts {
			st.Merge(p.states[i], into[pi])
		}
	}
	return out
}

// rows renders the groups in first-seen order: key values boxed from each
// group's first image row, then the aggregate results. With no keys there is
// one row even over empty input (SQL's global aggregation).
func (vp *vecGroupPlan) rows(gs *groupState) []types.Row {
	ng := len(gs.first)
	if len(vp.keys) == 0 && ng == 0 {
		ng = 1
		gs.states = vp.newStates(1)
	}
	// One flat backing for every row (each a full-length sub-slice): a
	// consumer that keeps the rows keeps one object, not one per group.
	nk := len(vp.keys)
	w := nk + len(gs.states)
	flat := make([]types.Value, ng*w)
	rows := make([]types.Row, ng)
	for g := range rows {
		row := flat[g*w : (g+1)*w : (g+1)*w]
		if nk > 0 {
			r := int(gs.first[g])
			if vp.ridx != nil {
				r = int(vp.ridx[r])
			}
			for j, c := range vp.keys {
				row[j] = c.Value(r) // interp-ok: boxed once per output group, not per row
			}
		}
		for i, st := range gs.states {
			row[nk+i] = st.Result(g)
		}
		rows[g] = row
	}
	return rows
}
