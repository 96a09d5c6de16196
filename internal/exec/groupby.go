package exec

import (
	"fmt"
	"time"

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

// addRows aggregates rows [lo, hi) of in into acc, evaluating the keys and
// aggregate arguments row by row.
func (acc *groupAcc) addRows(n *plan.GroupBy, ctx *eval.Context, in *Result, lo, hi int) error {
	for ri := lo; ri < hi; ri++ {
		ctx.Binding.Row = in.Rows[ri]
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
		g := acc.groups[string(acc.keyBuf)]
		if g == nil {
			var err error
			g, err = newGroup(n, append(types.Row(nil), acc.keyVals...))
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
	// One flat backing for every row (each a full-length sub-slice): a
	// consumer that keeps the rows — the result cache, a projection handing
	// them on — keeps one object, not one per group.
	w := len(n.Keys) + len(n.Aggs)
	flat := make([]types.Value, len(acc.order)*w)
	rows := make([]types.Row, len(acc.order))
	for i, gk := range acc.order {
		g := acc.groups[gk]
		row := flat[i*w : (i+1)*w : (i+1)*w]
		copy(row, g.keys)
		for j, a := range g.accs {
			row[len(g.keys)+j] = a.Result()
		}
		rows[i] = row
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
// first-seen input order. EXPLAIN ANALYZE's group-by line says how the keys
// were held (packed words, interned words when they overflow, or the row
// path's key bytes), how many groups came out and how many partials merged.
//
// Large inputs take the morsel path: each morsel builds a partial
// aggregation table, and partials are merged in morsel order. Because
// morsel boundaries and the merge order depend only on the input size —
// never on the worker count — the result (floating-point accumulation
// included) is bit-identical for every Workers setting.
func (ex *Executor) execGroupBy(n *plan.GroupBy, outer *eval.Binding) (*Result, error) {
	in, err := ex.run(n.Input, outer)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	vp := ex.vecGroupPlan(n, in)
	if vp == nil {
		if in, err = ex.boxed(in); err != nil {
			return nil, err
		}
	}
	nr := in.Len()
	nm := 0
	if groupByParallelizable(n) {
		nm = ex.morselCount(nr)
	}
	var (
		rows                       []types.Row
		keys                       string
		partials, morsels, workers int
	)
	if vp != nil {
		var parts []*groupState
		parts, morsels, workers, err = eachPart(ex, nr, nm, func(_, lo, hi int) (*groupState, error) {
			return vp.accumulate(in, lo, hi)
		})
		if err != nil {
			return nil, err
		}
		rows, keys, partials = vp.rows(vp.merge(parts)), keyNote(vp.lay), len(parts)
	} else {
		wc := ex.workerCtxs(in.Schema, outer)
		var parts []*groupAcc
		parts, morsels, workers, err = eachPart(ex, nr, nm, func(w, lo, hi int) (*groupAcc, error) {
			acc := newGroupAcc()
			return acc, acc.addRows(n, wc.get(w), in, lo, hi)
		})
		if err != nil {
			return nil, err
		}
		if rows, err = mergeGroupAccs(parts).rows(n); err != nil {
			return nil, err
		}
		keys, partials = "row", len(parts)
	}
	ex.opLine("group-by", nr, morsels, workers, start, fmt.Sprintf("keys=%s groups=%d partials=%d", keys, len(rows), partials))
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}

// eachPart runs part over the input's nm morsels on the worker pool — or
// once over all n rows, as worker 0, when nm is 0 — and returns the
// partials in morsel order with the morsel count and the workers used.
func eachPart[P any](ex *Executor, n, nm int, part func(w, lo, hi int) (P, error)) (parts []P, morsels, workers int, err error) {
	if nm == 0 {
		p, err := part(0, 0, n)
		return []P{p}, 0, 1, err
	}
	parts = make([]P, nm)
	morsels, workers, err = ex.runMorsels(n, func(w int, m morsel) error {
		var err error
		parts[m.Idx], err = part(w, m.Lo, m.Hi)
		return err
	})
	return parts, morsels, workers, err
}

// mergeGroupAccs merges the row path's partials in morsel order. Iterating
// each partial's own first-seen order recovers the global first-seen
// order: a group's first occurrence lies in the earliest morsel containing
// it.
func mergeGroupAccs(parts []*groupAcc) *groupAcc {
	if len(parts) == 1 {
		return parts[0]
	}
	global := newGroupAcc()
	for _, p := range parts {
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
	return global
}
