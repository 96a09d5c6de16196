package exec

import (
	"sqlsheet/internal/aggs"
	"sqlsheet/internal/colstore"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// Batch aggregation: when the group-by input carries columnar provenance,
// its grouping keys are plain columns, and every aggregate argument has a
// supported compute kernel, each morsel is aggregated in three vectorized
// steps instead of a per-row loop:
//
//  1. a group-id vector: every row of the morsel is assigned a dense int32
//     id in first-seen order (dict-coded and integer keys probe a packed
//     integer map; anything else probes by the same encoded key bytes the
//     row path uses);
//  2. one kernel run per aggregate argument, producing typed vectors;
//  3. one bulk accumulate per aggregate (eval.AggBatch over aggs.SumBatch &
//     co.), addressed by group id, feeding values in ascending row order.
//
// The result is unboxed into the same groupAcc the row path builds — group
// keys keyed by their types.AppendKey encoding in first-seen order — so
// result rendering and the morsel-ordered partial merge are shared, and the
// output is bit-identical (float accumulation order included) to the row
// path at every worker count.

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
// input image. nil means the row path runs.
type vecGroupPlan struct {
	specs []vecAggSpec
}

// vecGroupPlan builds the batch plan, or nil when any part of the group-by
// has no vectorized form: provenance missing, keys not plain columns, an
// argument kernel missing or unsupported over this image (so shapes the row
// path rejects — e.g. strings under SUM's argument arithmetic — fall back
// whole-operator and raise the identical error), or an aggregate without a
// batch accumulator.
func (ex *Executor) vecGroupPlan(n *plan.GroupBy, in *Result, ke *keyEnc) *vecGroupPlan {
	if ex.Opts.Engine.DisableVectorizedExec || !vecOK(in) {
		return nil
	}
	if len(n.Keys) > 0 && ke == nil {
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
	return vp
}

// gidTable assigns dense group ids in first-seen order over one morsel and
// records, per new group, its encoded key bytes (the row path's map key)
// and boxed key values.
type gidTable struct {
	ke      *keyEnc
	keys    []types.Row
	keyStrs []string
	keyBuf  []byte

	byStr  map[string]int32
	byCode map[uint64]int32
	codes  []keyCodes
}

// keyCodes is one key column readable as a packed small-domain code:
// dictionary string codes or boolean 0/1 content.
type keyCodes struct {
	codes []uint32
	ints  []int64
	nulls colstore.Bitmap
}

// codeAt reads row r's 32-bit code, with 2^32-1 for NULL. Dictionary codes
// stay under DictMaxEntries (2^16) and bools under 3, so the NULL sentinel
// never collides and two columns pack into one uint64: distinct code tuples
// correspond exactly to distinct encoded key bytes, NULLs included.
func (kc *keyCodes) codeAt(r int) uint64 {
	if kc.nulls != nil && kc.nulls.Get(r) {
		return 1<<32 - 1
	}
	if kc.codes != nil {
		return uint64(kc.codes[r])
	}
	return uint64(kc.ints[r]) + 1
}

// newGidTable picks the probe strategy for ke's key columns: up to two
// columns whose values pack into 32-bit codes (dictionary strings, bools)
// probe a packed-integer map — distinct code tuples correspond exactly to
// distinct encoded keys, NULLs included — and anything else probes by the
// encoded key bytes.
func newGidTable(ke *keyEnc) *gidTable {
	t := &gidTable{ke: ke}
	if ke != nil && len(ke.cols) >= 1 && len(ke.cols) <= 2 {
		codes := make([]keyCodes, 0, len(ke.cols))
		for _, c := range ke.cols {
			switch {
			case c.Kind == types.KindString && c.IsDict():
				// Dict codes are < 2^16, and NULL slots hold code 0 —
				// masked by the bitmap before the code is read.
				codes = append(codes, keyCodes{codes: c.Codes, nulls: c.Nulls})
			case c.Kind == types.KindBool && c.Boxed == nil:
				codes = append(codes, keyCodes{ints: c.Ints, nulls: c.Nulls})
			default:
				codes = nil
			}
			if codes == nil {
				break
			}
		}
		if codes != nil {
			t.codes = codes
			t.byCode = make(map[uint64]int32)
			return t
		}
	}
	t.byStr = make(map[string]int32)
	return t
}

// gid returns result position ri's dense group id, inserting a new group in
// first-seen order. The encoded key bytes recorded for a new group are
// byte-identical to the row path's map key.
func (t *gidTable) gid(ri int) int32 {
	if t.byCode != nil {
		r := t.ke.imgRow(ri)
		packed := t.codes[0].codeAt(r)
		if len(t.codes) == 2 {
			packed = packed<<32 | t.codes[1].codeAt(r)
		}
		g, ok := t.byCode[packed]
		if !ok {
			g = t.insert(ri)
			t.byCode[packed] = g
		}
		return g
	}
	t.keyBuf = t.ke.groupKeyInto(t.keyBuf, ri)
	g, ok := t.byStr[string(t.keyBuf)]
	if !ok {
		g = t.insert(ri)
		t.byStr[t.keyStrs[g]] = g
	}
	return g
}

func (t *gidTable) insert(ri int) int32 {
	g := int32(len(t.keys))
	t.keyBuf = t.ke.groupKeyInto(t.keyBuf, ri)
	t.keyStrs = append(t.keyStrs, string(t.keyBuf))
	t.keys = append(t.keys, t.ke.keyVals(ri))
	return g
}

// accumulate aggregates rows [lo, hi) of in into a fresh groupAcc using the
// batch kernels. Rows feed in ascending order, so per-group accumulator
// state — float addition order included — matches the row path's exactly.
func (vp *vecGroupPlan) accumulate(in *Result, ke *keyEnc, lo, hi int) (*groupAcc, error) {
	m := hi - lo
	selBuf := colstore.GetSel(m)
	defer colstore.PutSel(selBuf)
	sel := *selBuf
	for p := lo; p < hi; p++ {
		sel = append(sel, int32(p))
	}
	*selBuf = sel[:0]

	gids := make([]int32, m)
	var keys []types.Row
	var keyStrs []string
	if ke != nil {
		t := newGidTable(ke)
		for r := 0; r < m; r++ {
			gids[r] = t.gid(lo + r)
		}
		keys, keyStrs = t.keys, t.keyStrs
	} else if m > 0 {
		// No grouping keys: one global group, the row path's "" entry.
		keys = append(keys, nil)
		keyStrs = append(keyStrs, "")
	}
	ng := len(keys)

	states := make([]eval.AggBatch, len(vp.specs))
	for i := range vp.specs {
		s := &vp.specs[i]
		st, _ := eval.NewAggBatch(s.name, s.star, s.kinds)
		states[i] = st
		st.Grow(ng)
		if s.star {
			st.Feed(gids, nil)
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
		st.Feed(gids, vecs)
	}

	acc := newGroupAcc()
	for g := 0; g < ng; g++ {
		grp := &group{keys: keys[g], accs: make([]aggs.Agg, len(states))}
		for i := range states {
			grp.accs[i] = states[i].Unbox(g)
		}
		acc.groups[keyStrs[g]] = grp
		acc.order = append(acc.order, keyStrs[g])
	}
	return acc, nil
}
