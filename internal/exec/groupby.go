package exec

import (
	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/types"
)

// group accumulates one grouping key's aggregate states.
type group struct {
	keys types.Row
	accs []aggs.Agg
}

func newGroup(n *plan.GroupBy, keys types.Row) (*group, error) {
	g := &group{keys: keys, accs: make([]aggs.Agg, len(n.Aggs))}
	for i, spec := range n.Aggs {
		a, err := aggs.New(spec.Call.Name, spec.Call.Star)
		if err != nil {
			return nil, err
		}
		g.accs[i] = a
	}
	return g, nil
}

// groupAcc is a hash-aggregation table preserving first-seen group order.
// keyBuf/keyVals/argBuf are per-accumulator scratch so the steady-state row
// loop (existing group, non-null keys) performs no allocations: the group
// probe converts keyBuf in the map index expression, and key/arg values are
// only cloned when a new group is inserted.
type groupAcc struct {
	groups  map[string]*group
	order   []string
	keyBuf  []byte
	keyVals types.Row
	argBuf  []types.Value
}

func newGroupAcc() *groupAcc {
	return &groupAcc{groups: map[string]*group{}}
}

// addRows aggregates rows [lo, hi) of in into acc. When ke is non-nil the
// grouping key bytes come straight from columnar vectors and key values are
// only materialized for first-seen groups; the bytes and values are
// identical to the closure path's.
func (acc *groupAcc) addRows(n *plan.GroupBy, ctx *eval.Context, in *Result, ke *keyEnc, lo, hi int) error {
	for ri := lo; ri < hi; ri++ {
		row := in.Rows[ri]
		ctx.Binding.Row = row
		if ke != nil {
			acc.keyBuf = ke.groupKeyInto(acc.keyBuf, ri)
		} else {
			acc.keyBuf = acc.keyBuf[:0]
			acc.keyVals = acc.keyVals[:0]
			for _, k := range n.KeysC {
				v, err := k.Eval(ctx)
				if err != nil {
					return err
				}
				acc.keyVals = append(acc.keyVals, v)
				acc.keyBuf = types.AppendKey(acc.keyBuf, v)
			}
		}
		g := acc.groups[string(acc.keyBuf)]
		if g == nil {
			var err error
			var keys types.Row
			if ke != nil {
				keys = ke.keyVals(ri)
			} else {
				keys = append(types.Row(nil), acc.keyVals...)
			}
			g, err = newGroup(n, keys)
			if err != nil {
				return err
			}
			gk := string(acc.keyBuf)
			acc.groups[gk] = g
			acc.order = append(acc.order, gk)
		}
		for i, spec := range n.Aggs {
			if spec.Call.Star {
				g.accs[i].Add()
				continue
			}
			vals := acc.argBuf[:0]
			for _, arg := range n.AggArgsC[i] {
				v, err := arg.Eval(ctx)
				if err != nil {
					return err
				}
				vals = append(vals, v)
			}
			acc.argBuf = vals[:0]
			g.accs[i].Add(vals...)
		}
	}
	return nil
}

// rows renders the accumulated groups in first-seen order, applying the
// SQL global-aggregation rule (one row even over empty input when there are
// no grouping keys).
func (acc *groupAcc) rows(n *plan.GroupBy) ([]types.Row, error) {
	if len(n.Keys) == 0 && len(acc.groups) == 0 {
		g, err := newGroup(n, nil)
		if err != nil {
			return nil, err
		}
		acc.groups[""] = g
		acc.order = append(acc.order, "")
	}
	rows := make([]types.Row, 0, len(acc.order))
	for _, gk := range acc.order {
		g := acc.groups[gk]
		row := make(types.Row, 0, len(n.Keys)+len(n.Aggs))
		row = append(row, g.keys...)
		for _, a := range g.accs {
			row = append(row, a.Result())
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// groupByParallelizable reports whether every aggregate supports partial-
// state merging and no expression hides a subquery. All six built-ins now
// merge (MIN/MAX fold extremes with serial tie behavior), so in practice
// only subqueries force the serial path.
func groupByParallelizable(n *plan.GroupBy) bool {
	for _, spec := range n.Aggs {
		if !aggs.Mergeable(spec.Call.Name) {
			return false
		}
		if anyHasSubquery(spec.Call.Args) {
			return false
		}
	}
	return !anyHasSubquery(n.Keys)
}

// execGroupBy hash-aggregates the input. Output rows carry the key values
// followed by the aggregate results, in the node's schema order, groups in
// first-seen input order.
//
// Large inputs take the morsel path: each morsel builds a partial
// aggregation table, and partials are merged in morsel order. Because
// morsel boundaries and the merge order depend only on the input size —
// never on the worker count — the result (floating-point accumulation
// included) is bit-identical for every Workers setting.
func (ex *Executor) execGroupBy(n *plan.GroupBy, outer *eval.Binding) (*Result, error) {
	in, err := ex.Execute(n.Input, outer)
	if err != nil {
		return nil, err
	}

	ke := ex.vecKeyEnc(in, n.Keys)
	vp := ex.vecGroupPlan(n, in, ke)
	if nm := ex.morselCount(len(in.Rows)); nm > 0 && groupByParallelizable(n) {
		partials := make([]*groupAcc, nm)
		wc := ex.workerCtxs(in.Schema, outer)
		if _, err := ex.forEachMorsel("group-by", len(in.Rows), func(w int, m morsel) error {
			if vp != nil {
				acc, err := vp.accumulate(in, ke, m.Lo, m.Hi)
				if err != nil {
					return err
				}
				partials[m.Idx] = acc
				return nil
			}
			acc := newGroupAcc()
			if err := acc.addRows(n, wc.get(w), in, ke, m.Lo, m.Hi); err != nil {
				return err
			}
			partials[m.Idx] = acc
			return nil
		}); err != nil {
			return nil, err
		}
		// Merge partials in morsel order. Iterating each partial's own
		// first-seen order recovers the global first-seen order: a group's
		// first occurrence lies in the earliest morsel containing it.
		global := newGroupAcc()
		for _, p := range partials {
			for _, gk := range p.order {
				pg := p.groups[gk]
				g := global.groups[gk]
				if g == nil {
					global.groups[gk] = pg
					global.order = append(global.order, gk)
					continue
				}
				for i := range g.accs {
					g.accs[i].(aggs.Merger).Merge(pg.accs[i])
				}
			}
		}
		rows, err := global.rows(n)
		if err != nil {
			return nil, err
		}
		return &Result{Schema: n.Schema(), Rows: rows}, nil
	}

	var acc *groupAcc
	if vp != nil {
		var err error
		if acc, err = vp.accumulate(in, ke, 0, len(in.Rows)); err != nil {
			return nil, err
		}
	} else {
		acc = newGroupAcc()
		ctx := ex.ctx(in.Schema, nil, outer)
		if err := acc.addRows(n, ctx, in, ke, 0, len(in.Rows)); err != nil {
			return nil, err
		}
	}
	rows, err := acc.rows(n)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}
