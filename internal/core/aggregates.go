package core

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// maxRangeProbe bounds unfolding of an integer range into point probes (the
// paper's transformation of F1: "t in (1992,...,2001)" instead of a scan).
const maxRangeProbe = 256

// aggInstance is one aggregate access being computed for one formula target:
// an accumulator, a row matcher over the partition, and the argument
// extractor. Instances either probe (all qualifiers enumerable — resolved
// through the hash access structure) or participate in a partition scan.
type aggInstance struct {
	node *sqlast.CellAgg
	acc  aggs.Agg
	star bool
	args []sqlast.Expr
	// ctx carries the cv() bindings of the owning formula target.
	ctx *eval.Context

	// matchers holds one per-dimension row test (scan mode).
	matchers []func(row types.Row) (bool, error)
	// vq mirrors matchers declaratively (qual kind plus the constants the
	// closures capture) so the batch partition scan can evaluate the same
	// tests over a columnar image; vqOpaque marks a dimension only the
	// closure can test (predicates), keeping the instance on the row scan.
	vq []vecQual
	// lists holds per-dimension candidate values; probe mode requires all.
	lists [][]types.Value
	probe bool

	// meas is the set of measure ordinals the arguments read, marked
	// referenced per fed row under convergence tracking (Auto-Cyclic).
	meas map[int]bool

	// argBuf/argCtx/argBind are per-instance scratch so the per-row argument
	// extraction in feed does not allocate.
	argBuf  []types.Value
	argCtx  eval.Context
	argBind eval.Binding
}

// buildInstance compiles a CellAgg into an instance under the current
// formula target's context (cv bound).
func (fe *frameEval) buildInstance(ctx *eval.Context, a *sqlast.CellAgg) (*aggInstance, error) {
	acc, err := aggs.New(a.Func, a.Star)
	if err != nil {
		return nil, err
	}
	inst := &aggInstance{node: a, acc: acc, star: a.Star, args: a.Args, ctx: ctx, meas: map[int]bool{}}
	for _, arg := range a.Args {
		for _, c := range sqlast.ColumnRefs(arg) {
			if mi := fe.m.MeasureOrdinal(c.Name); mi >= 0 {
				inst.meas[mi] = true
			}
		}
	}
	m := fe.m
	inst.matchers = make([]func(types.Row) (bool, error), m.NDby)
	inst.vq = make([]vecQual, m.NDby)
	inst.lists = make([][]types.Value, m.NDby)
	allEnumerable := true
	for i := 0; i < m.NDby; i++ {
		q := a.Quals[i]
		col := m.NPby + i
		switch q.Kind {
		case sqlast.QualPoint:
			v, err := fe.eval(ctx, q.Val)
			if err != nil {
				return nil, err
			}
			inst.lists[i] = []types.Value{v}
			inst.vq[i] = vecQual{kind: vqPoint, val: v}
			inst.matchers[i] = func(row types.Row) (bool, error) {
				return types.Equal(row[col], v), nil
			}
		case sqlast.QualStar:
			allEnumerable = false
			inst.vq[i] = vecQual{kind: vqStar}
			inst.matchers[i] = func(types.Row) (bool, error) { return true, nil }
		case sqlast.QualRange:
			lo, err := fe.eval(ctx, q.Lo)
			if err != nil {
				return nil, err
			}
			hi, err := fe.eval(ctx, q.Hi)
			if err != nil {
				return nil, err
			}
			loIncl, hiIncl := q.LoIncl, q.HiIncl
			inst.vq[i] = vecQual{kind: vqRange, lo: lo, hi: hi, loIncl: loIncl, hiIncl: hiIncl}
			inst.matchers[i] = func(row types.Row) (bool, error) {
				v := row[col]
				if v.IsNull() || lo.IsNull() || hi.IsNull() {
					return false, nil
				}
				cl := types.Compare(v, lo)
				if cl < 0 || (cl == 0 && !loIncl) {
					return false, nil
				}
				ch := types.Compare(v, hi)
				if ch > 0 || (ch == 0 && !hiIncl) {
					return false, nil
				}
				return true, nil
			}
			if vals, ok := enumerateRange(lo, hi, loIncl, hiIncl); ok && !fe.opts.Ablate.DisableRangeProbe {
				inst.lists[i] = vals
			} else {
				allEnumerable = false
			}
		case sqlast.QualPred:
			if vals, ok := fe.enumeratePred(ctx, q.Pred, q.Dim); ok && !fe.opts.Ablate.DisableRangeProbe {
				inst.lists[i] = vals
			} else {
				allEnumerable = false
			}
			pred := q.Pred
			// The context copy and binding are hoisted out of the per-row
			// matcher: every field but the row binding is fixed once the
			// owning target's cv() values are bound at build time.
			mctx := *ctx
			mbind := eval.Binding{BS: fe.bs}
			mctx.Binding = &mbind
			inst.matchers[i] = func(row types.Row) (bool, error) {
				mbind.Row = row
				return fe.evalBool(&mctx, pred)
			}
		default:
			return nil, fmt.Errorf("unsupported qualifier kind on an aggregate reference")
		}
	}
	inst.probe = allEnumerable
	return inst, nil
}

// enumerateRange expands an integer interval into its members when small.
func enumerateRange(lo, hi types.Value, loIncl, hiIncl bool) ([]types.Value, bool) {
	if lo.K != types.KindInt || hi.K != types.KindInt {
		return nil, false
	}
	a, b := lo.I, hi.I
	if !loIncl {
		a++
	}
	if !hiIncl {
		b--
	}
	if b < a || b-a+1 > maxRangeProbe {
		return nil, false
	}
	vals := make([]types.Value, 0, b-a+1)
	for v := a; v <= b; v++ {
		vals = append(vals, types.NewInt(v))
	}
	return vals, true
}

// enumeratePred extracts a value list from simple membership predicates:
// "dim = e", "dim IN (e1, ...)" and small integer ranges.
func (fe *frameEval) enumeratePred(ctx *eval.Context, pred sqlast.Expr, dim string) ([]types.Value, bool) {
	switch x := pred.(type) {
	case *sqlast.Binary:
		if x.Op != "=" {
			return nil, false
		}
		if c, ok := x.L.(*sqlast.ColumnRef); ok && c.Name == dim && c.Table == "" {
			v, err := fe.eval(ctx, x.R)
			if err != nil {
				return nil, false
			}
			return []types.Value{v}, true
		}
		return nil, false
	case *sqlast.InList:
		if x.Not {
			return nil, false
		}
		c, ok := x.X.(*sqlast.ColumnRef)
		if !ok || c.Name != dim || c.Table != "" {
			return nil, false
		}
		vals := make([]types.Value, 0, len(x.List))
		for _, e := range x.List {
			v, err := fe.eval(ctx, e)
			if err != nil {
				return nil, false
			}
			vals = append(vals, v)
		}
		return vals, true
	case *sqlast.Between:
		if x.Not {
			return nil, false
		}
		c, ok := x.X.(*sqlast.ColumnRef)
		if !ok || c.Name != dim {
			return nil, false
		}
		lo, err1 := fe.eval(ctx, x.Lo)
		hi, err2 := fe.eval(ctx, x.Hi)
		if err1 != nil || err2 != nil {
			return nil, false
		}
		return enumerateRange(lo, hi, true, true)
	}
	return nil, false
}

// match tests a row against all dimension matchers.
func (inst *aggInstance) match(row types.Row) (bool, error) {
	for _, m := range inst.matchers {
		ok, err := m(row)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// argValsInto extracts the aggregate's argument values from a row, appending
// into buf (callers pass scratch they own; accumulators do not retain the
// slice past Add).
func (inst *aggInstance) argValsInto(buf []types.Value, fe *frameEval, row types.Row) ([]types.Value, error) {
	if inst.star {
		return nil, nil
	}
	inst.argCtx = *inst.ctx
	inst.argBind = eval.Binding{BS: fe.bs, Row: row}
	inst.argCtx.Binding = &inst.argBind
	for _, a := range inst.args {
		v, err := fe.eval(&inst.argCtx, a)
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}

// feed adds a matching row to the accumulator, marking convergence flags.
func (inst *aggInstance) feed(fe *frameEval, pos int, row types.Row) error {
	vals, err := inst.argValsInto(inst.argBuf[:0], fe, row)
	if err != nil {
		return err
	}
	inst.argBuf = vals[:0]
	inst.acc.Add(vals...)
	if fe.trackRefs {
		if inst.star {
			// count(*) reads row existence; use a slot past the schema so
			// it cannot collide with a real measure ordinal.
			fe.f.MarkReferenced(fe.gen, pos, fe.m.Schema.Len())
		}
		for mi := range inst.meas {
			fe.f.MarkReferenced(fe.gen, pos, mi)
		}
	}
	return nil
}

// runProbe computes a probe-mode instance through the hash access structure.
func (inst *aggInstance) runProbe(fe *frameEval) error {
	dims := make([]types.Value, len(inst.lists))
	buf := fe.scanRow()
	defer fe.doneRow()
	var walk func(d int) error
	walk = func(d int) error {
		if d == len(inst.lists) {
			pos, ok := fe.f.Lookup(dims)
			if !ok {
				return nil
			}
			return inst.feed(fe, pos, fe.f.Row(pos, buf))
		}
		for _, v := range inst.lists[d] {
			dims[d] = v
			if err := walk(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}
