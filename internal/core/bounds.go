package core

import (
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Bound is the compile-time abstraction of the values a qualifier can take
// along one dimension: everything (All), a finite value set, or an interval.
// It drives the bounding-rectangle analysis of §4: dependency edges, formula
// pruning/rewriting and predicate pushing all compare Bounds. When a
// qualifier is too complex to analyze the Bound degrades to All, which the
// paper notes "may result in over-estimation of the -> relation leading to
// spurious cycles".
type Bound struct {
	All     bool
	Vals    []types.Value // finite set (when !All && !IsRange)
	IsRange bool
	Lo, Hi  types.Value // Null = unbounded on that side
	LoIncl  bool
	HiIncl  bool
}

// Rect is a bounding rectangle: one Bound per DBY dimension.
type Rect []Bound

// allBound is the unknown/unbounded Bound.
func allBound() Bound { return Bound{All: true} }

func valsBound(vs ...types.Value) Bound { return Bound{Vals: vs} }

// staticEval tries to evaluate an expression that involves only literals.
func staticEval(e sqlast.Expr) (types.Value, bool) {
	if e == nil {
		return types.Null, false
	}
	hasRef := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		switch n.(type) {
		case *sqlast.ColumnRef, *sqlast.CurrentV, *sqlast.CellRef, *sqlast.CellAgg,
			*sqlast.ScalarSubquery, *sqlast.InSubquery, *sqlast.Exists, *sqlast.Previous, *sqlast.Present:
			hasRef = true
		}
		return !hasRef
	})
	if hasRef {
		return types.Null, false
	}
	v, err := eval.Compile(nil, e).Eval(&eval.Context{})
	if err != nil {
		return types.Null, false
	}
	return v, true
}

// cvShift recognizes cv(dim), cv(dim)+k and cv(dim)-k and returns the
// dimension and the integer shift.
func cvShift(e sqlast.Expr) (dim string, shift int64, ok bool) {
	switch x := e.(type) {
	case *sqlast.CurrentV:
		return x.Dim, 0, true
	case *sqlast.Binary:
		if x.Op != "+" && x.Op != "-" {
			return "", 0, false
		}
		cv, isCv := x.L.(*sqlast.CurrentV)
		if !isCv {
			return "", 0, false
		}
		k, isLit := staticEval(x.R)
		if !isLit || k.K != types.KindInt {
			return "", 0, false
		}
		if x.Op == "-" {
			return cv.Dim, -k.I, true
		}
		return cv.Dim, k.I, true
	}
	return "", 0, false
}

// shiftBound offsets an integer-valued bound by k. Non-integer values make
// the result All.
func shiftBound(b Bound, k int64) Bound {
	if b.All {
		return b
	}
	if b.IsRange {
		out := b
		for _, v := range []*types.Value{&out.Lo, &out.Hi} {
			if v.IsNull() {
				continue
			}
			if v.K != types.KindInt {
				return allBound()
			}
			*v = types.NewInt(v.I + k)
		}
		return out
	}
	out := Bound{Vals: make([]types.Value, len(b.Vals))}
	for i, v := range b.Vals {
		if v.K != types.KindInt {
			return allBound()
		}
		out.Vals[i] = types.NewInt(v.I + k)
	}
	return out
}

// qualBound computes the compile-time bound of a qualifier. lhs, when
// non-nil, provides the left-side rectangle used to resolve cv() references
// (the right side of a formula moves within the left side's rectangle).
func (m *Model) qualBound(q *Qual, lhs Rect) Bound {
	switch q.Kind {
	case sqlast.QualStar:
		return allBound()
	case sqlast.QualPoint:
		if v, ok := staticEval(q.Val); ok {
			return valsBound(v)
		}
		if dim, k, ok := cvShift(q.Val); ok && lhs != nil {
			if d := m.DimOrdinal(dim); d >= 0 {
				if k == 0 {
					return lhs[d]
				}
				return shiftBound(lhs[d], k)
			}
		}
		return allBound()
	case sqlast.QualPred:
		return m.predBound(q.Pred, q.DimName, lhs)
	case sqlast.QualRange:
		lo, hi := allBound(), allBound()
		if v, ok := staticEval(q.Lo); ok {
			lo = valsBound(v)
		} else if dim, k, ok := cvShift(q.Lo); ok && lhs != nil {
			if d := m.DimOrdinal(dim); d >= 0 {
				lo = shiftBound(lhs[d], k)
			}
		}
		if v, ok := staticEval(q.Hi); ok {
			hi = valsBound(v)
		} else if dim, k, ok := cvShift(q.Hi); ok && lhs != nil {
			if d := m.DimOrdinal(dim); d >= 0 {
				hi = shiftBound(lhs[d], k)
			}
		}
		loV, okLo := boundMin(lo)
		hiV, okHi := boundMax(hi)
		if !okLo && !okHi {
			return allBound()
		}
		out := Bound{IsRange: true, LoIncl: q.LoIncl, HiIncl: q.HiIncl}
		if okLo {
			out.Lo = loV
		}
		if okHi {
			out.Hi = hiV
		}
		return out
	case sqlast.QualForIn:
		if len(q.ForVals) > 0 {
			var vs []types.Value
			for _, e := range q.ForVals {
				v, ok := staticEval(e)
				if !ok {
					return allBound()
				}
				vs = append(vs, v)
			}
			return Bound{Vals: vs}
		}
		if q.ForFrom != nil {
			lo, okLo := staticEval(q.ForFrom)
			hi, okHi := staticEval(q.ForTo)
			if okLo && okHi {
				if types.Compare(lo, hi) > 0 {
					lo, hi = hi, lo // negative increment walks downward
				}
				return Bound{IsRange: true, Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}
			}
		}
		return allBound() // subquery values unknown until run time
	}
	return allBound()
}

// boundMin returns the smallest value a bound can take, if known.
func boundMin(b Bound) (types.Value, bool) {
	if b.All {
		return types.Null, false
	}
	if b.IsRange {
		if b.Lo.IsNull() {
			return types.Null, false
		}
		return b.Lo, true
	}
	if len(b.Vals) == 0 {
		return types.Null, false
	}
	best := b.Vals[0]
	for _, v := range b.Vals[1:] {
		if types.Compare(v, best) < 0 {
			best = v
		}
	}
	return best, true
}

func boundMax(b Bound) (types.Value, bool) {
	if b.All {
		return types.Null, false
	}
	if b.IsRange {
		if b.Hi.IsNull() {
			return types.Null, false
		}
		return b.Hi, true
	}
	if len(b.Vals) == 0 {
		return types.Null, false
	}
	best := b.Vals[0]
	for _, v := range b.Vals[1:] {
		if types.Compare(v, best) > 0 {
			best = v
		}
	}
	return best, true
}

// predBound extracts a bound from a boolean qualifier over dim.
func (m *Model) predBound(pred sqlast.Expr, dim string, lhs Rect) Bound {
	switch x := pred.(type) {
	case *sqlast.Binary:
		if x.Op == "AND" {
			return intersectBound(m.predBound(x.L, dim, lhs), m.predBound(x.R, dim, lhs))
		}
		if x.Op == "OR" {
			return unionBound(m.predBound(x.L, dim, lhs), m.predBound(x.R, dim, lhs))
		}
		// dim <op> expr or expr <op> dim.
		l, isColL := x.L.(*sqlast.ColumnRef)
		r, isColR := x.R.(*sqlast.ColumnRef)
		var op string
		var valExpr sqlast.Expr
		switch {
		case isColL && l.Name == dim && l.Table == "":
			op, valExpr = x.Op, x.R
		case isColR && r.Name == dim && r.Table == "":
			op, valExpr = flipOp(x.Op), x.L
		default:
			return allBound()
		}
		v, ok := staticEval(valExpr)
		if !ok {
			if d, k, okCv := cvShift(valExpr); okCv && lhs != nil && op == "=" {
				if di := m.DimOrdinal(d); di >= 0 {
					return shiftBound(lhs[di], k)
				}
			}
			return allBound()
		}
		switch op {
		case "=":
			return valsBound(v)
		case "<":
			return Bound{IsRange: true, Hi: v}
		case "<=":
			return Bound{IsRange: true, Hi: v, HiIncl: true}
		case ">":
			return Bound{IsRange: true, Lo: v}
		case ">=":
			return Bound{IsRange: true, Lo: v, LoIncl: true}
		}
		return allBound() // <> and friends
	case *sqlast.InList:
		if x.Not {
			return allBound()
		}
		c, ok := x.X.(*sqlast.ColumnRef)
		if !ok || c.Name != dim {
			return allBound()
		}
		var vs []types.Value
		for _, e := range x.List {
			v, ok := staticEval(e)
			if !ok {
				return allBound()
			}
			vs = append(vs, v)
		}
		return Bound{Vals: vs}
	case *sqlast.Between:
		if x.Not {
			return allBound()
		}
		c, ok := x.X.(*sqlast.ColumnRef)
		if !ok || c.Name != dim {
			return allBound()
		}
		lo, okLo := staticEval(x.Lo)
		hi, okHi := staticEval(x.Hi)
		if !okLo || !okHi {
			return allBound()
		}
		return Bound{IsRange: true, Lo: lo, Hi: hi, LoIncl: true, HiIncl: true}
	}
	return allBound()
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// intersectBound conservatively intersects two bounds (may over-approximate).
func intersectBound(a, b Bound) Bound {
	if a.All {
		return b
	}
	if b.All {
		return a
	}
	if !a.IsRange && !b.IsRange {
		var vs []types.Value
		for _, v := range a.Vals {
			for _, w := range b.Vals {
				if types.Equal(v, w) {
					vs = append(vs, v)
					break
				}
			}
		}
		return Bound{Vals: vs}
	}
	if !a.IsRange {
		return filterVals(a, b)
	}
	if !b.IsRange {
		return filterVals(b, a)
	}
	out := Bound{IsRange: true}
	out.Lo, out.LoIncl = maxEdge(a.Lo, a.LoIncl, b.Lo, b.LoIncl, true)
	out.Hi, out.HiIncl = maxEdge(a.Hi, a.HiIncl, b.Hi, b.HiIncl, false)
	return out
}

// filterVals keeps the values of vals that fall inside rng.
func filterVals(vals, rng Bound) Bound {
	var vs []types.Value
	for _, v := range vals.Vals {
		if rangeContains(rng, v) {
			vs = append(vs, v)
		}
	}
	return Bound{Vals: vs}
}

// maxEdge picks the tighter of two interval edges. lower selects the
// lower-edge rule (tighter = larger) vs the upper-edge rule (tighter =
// smaller). A Null edge is unbounded.
func maxEdge(a types.Value, aIncl bool, b types.Value, bIncl bool, lower bool) (types.Value, bool) {
	if a.IsNull() {
		return b, bIncl
	}
	if b.IsNull() {
		return a, aIncl
	}
	c := types.Compare(a, b)
	if c == 0 {
		return a, aIncl && bIncl
	}
	pickA := c > 0 == lower
	if pickA {
		return a, aIncl
	}
	return b, bIncl
}

// unionBound hulls two bounds.
func unionBound(a, b Bound) Bound {
	if a.All || b.All {
		return allBound()
	}
	if !a.IsRange && !b.IsRange {
		out := Bound{Vals: append([]types.Value(nil), a.Vals...)}
		for _, v := range b.Vals {
			dup := false
			for _, w := range out.Vals {
				if types.Equal(v, w) {
					dup = true
					break
				}
			}
			if !dup {
				out.Vals = append(out.Vals, v)
			}
		}
		return out
	}
	// Mixed or range/range: take the covering interval. An endpoint of the
	// hull is inclusive iff at least one operand attains it inclusively
	// (a finite value set always attains its members).
	lo1, okLo1 := boundMin(a)
	lo2, okLo2 := boundMin(b)
	hi1, okHi1 := boundMax(a)
	hi2, okHi2 := boundMax(b)
	out := Bound{IsRange: true}
	if okLo1 && okLo2 {
		if types.Compare(lo1, lo2) <= 0 {
			out.Lo = lo1
		} else {
			out.Lo = lo2
		}
		out.LoIncl = attainsEdge(a, out.Lo) || attainsEdge(b, out.Lo)
	}
	if okHi1 && okHi2 {
		if types.Compare(hi1, hi2) >= 0 {
			out.Hi = hi1
		} else {
			out.Hi = hi2
		}
		out.HiIncl = attainsEdge(a, out.Hi) || attainsEdge(b, out.Hi)
	}
	return out
}

// attainsEdge reports whether bound b actually contains the value v at an
// interval edge (value sets always do when they hold the member; ranges
// only when the matching side is inclusive).
func attainsEdge(b Bound, v types.Value) bool {
	if b.All {
		return true
	}
	if !b.IsRange {
		for _, w := range b.Vals {
			if types.Equal(v, w) {
				return true
			}
		}
		return false
	}
	if !b.Lo.IsNull() && types.Equal(b.Lo, v) {
		return b.LoIncl
	}
	if !b.Hi.IsNull() && types.Equal(b.Hi, v) {
		return b.HiIncl
	}
	// Interior values of a range are always attained.
	return rangeContains(b, v)
}

// rangeContains reports whether interval-bound b contains v.
func rangeContains(b Bound, v types.Value) bool {
	if b.All {
		return true
	}
	if !b.IsRange {
		for _, w := range b.Vals {
			if types.Equal(v, w) {
				return true
			}
		}
		return false
	}
	if !b.Lo.IsNull() {
		c := types.Compare(v, b.Lo)
		if c < 0 || (c == 0 && !b.LoIncl) {
			return false
		}
	}
	if !b.Hi.IsNull() {
		c := types.Compare(v, b.Hi)
		if c > 0 || (c == 0 && !b.HiIncl) {
			return false
		}
	}
	return true
}

// boundsIntersect reports whether two bounds may share a value.
// Unknown bounds intersect everything (conservative).
func boundsIntersect(a, b Bound) bool {
	if a.All || b.All {
		return true
	}
	if !a.IsRange && !b.IsRange {
		for _, v := range a.Vals {
			for _, w := range b.Vals {
				if types.Equal(v, w) {
					return true
				}
			}
		}
		return false
	}
	if !a.IsRange {
		for _, v := range a.Vals {
			if rangeContains(b, v) {
				return true
			}
		}
		return false
	}
	if !b.IsRange {
		for _, v := range b.Vals {
			if rangeContains(a, v) {
				return true
			}
		}
		return false
	}
	// range vs range: disjoint iff one ends before the other starts.
	if !a.Hi.IsNull() && !b.Lo.IsNull() {
		c := types.Compare(a.Hi, b.Lo)
		if c < 0 || (c == 0 && !(a.HiIncl && b.LoIncl)) {
			return false
		}
	}
	if !b.Hi.IsNull() && !a.Lo.IsNull() {
		c := types.Compare(b.Hi, a.Lo)
		if c < 0 || (c == 0 && !(b.HiIncl && a.LoIncl)) {
			return false
		}
	}
	return true
}

// rectsIntersect tests whether two rectangles can share a cell. Empty or
// nil rectangles intersect everything (conservative for unknown accesses).
func rectsIntersect(a, b Rect) bool {
	if a == nil || b == nil {
		return true
	}
	for d := range a {
		if !boundsIntersect(a[d], b[d]) {
			return false
		}
	}
	return true
}

// lhsRect computes L(F): the rectangle of cells a rule writes.
func (m *Model) lhsRect(r *Rule) Rect {
	rect := make(Rect, m.NDby)
	for i := range r.Quals {
		rect[i] = m.qualBound(&r.Quals[i], nil)
	}
	return rect
}

// refRect computes the rectangle of a right-side reference, resolving cv()
// against the rule's left-side rectangle.
func (m *Model) refRect(qs []sqlast.DimQual, r *Rule) Rect {
	lhs := r.lhsRect
	if lhs == nil {
		// lhsRect not yet assigned during compileRule; compute on demand.
		lhs = m.lhsRect(r)
	}
	if len(qs) != m.NDby {
		return nil
	}
	rect := make(Rect, m.NDby)
	for i := range qs {
		q := Qual{Kind: qs[i].Kind, Dim: i, DimName: m.DimName(i),
			Val: qs[i].Val, Pred: qs[i].Pred, Lo: qs[i].Lo, Hi: qs[i].Hi,
			LoIncl: qs[i].LoIncl, HiIncl: qs[i].HiIncl, ForVals: qs[i].ForVals, ForSub: qs[i].ForSub}
		rect[i] = m.qualBound(&q, lhs)
	}
	return rect
}

// SheetRect returns the bounding rectangle of the whole spreadsheet: the
// union over every rule of the cells it writes and reads. It is the basis
// of DBY predicate pushing ("a bounding rectangle for the entire spreadsheet
// is obtained ... which is a union of bounding rectangles for each formula").
func (m *Model) SheetRect() Rect {
	out := make(Rect, m.NDby)
	for d := range out {
		out[d] = Bound{Vals: nil} // empty
	}
	first := true
	merge := func(r Rect) {
		if r == nil {
			for d := range out {
				out[d] = allBound()
			}
			return
		}
		if first {
			copy(out, r)
			first = false
			return
		}
		for d := range out {
			out[d] = unionBound(out[d], r[d])
		}
	}
	for _, rule := range m.Rules {
		merge(rule.lhsRect)
		for _, a := range rule.reads {
			if a.refIdx >= 0 {
				continue
			}
			merge(a.rect)
		}
	}
	if first {
		for d := range out {
			out[d] = allBound()
		}
	}
	return out
}

// BoundPredicate renders a bound as a SQL predicate over col, or nil when
// the bound is unbounded (All).
func BoundPredicate(col string, b Bound) sqlast.Expr {
	if b.All {
		return nil
	}
	cref := &sqlast.ColumnRef{Name: col}
	if !b.IsRange {
		if len(b.Vals) == 0 {
			return &sqlast.Literal{Val: types.NewBool(false)}
		}
		if len(b.Vals) == 1 {
			return &sqlast.Binary{Op: "=", L: cref, R: &sqlast.Literal{Val: b.Vals[0]}}
		}
		list := make([]sqlast.Expr, len(b.Vals))
		for i, v := range b.Vals {
			list[i] = &sqlast.Literal{Val: v}
		}
		return &sqlast.InList{X: cref, List: list}
	}
	var parts []sqlast.Expr
	if !b.Lo.IsNull() {
		op := ">"
		if b.LoIncl {
			op = ">="
		}
		parts = append(parts, &sqlast.Binary{Op: op, L: cref, R: &sqlast.Literal{Val: b.Lo}})
	}
	if !b.Hi.IsNull() {
		op := "<"
		if b.HiIncl {
			op = "<="
		}
		parts = append(parts, &sqlast.Binary{Op: op, L: cref, R: &sqlast.Literal{Val: b.Hi}})
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return &sqlast.Binary{Op: "AND", L: parts[0], R: parts[1]}
}
