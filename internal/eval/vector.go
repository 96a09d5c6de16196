package eval

import (
	"sync/atomic"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file compiles predicates into vectorized selection kernels: batch
// operators that evaluate a whole chunk of a columnar image per call,
// consuming typed vectors directly and propagating selection vectors
// between operators instead of binding rows one at a time.
//
// Selection-vector contract: a kernel receives `sel`, an ascending list of
// candidate positions, and appends to `out` (len 0, cap ≥ len(sel)) the
// ascending subset of positions where the predicate is TRUE under SQL
// three-valued logic — exactly the rows the row-at-a-time filter keeps.
// NULL and FALSE are both "not selected"; the distinction never escapes a
// kernel because filters only act on TRUE.
//
// NOT is pushed down at compile time. Kleene three-valued logic validates
// De Morgan (NOT(a AND b) ≡ NOT a OR NOT b), so conjunction always lowers
// to sequential kernel application and disjunction to an ordered merge of
// two selections; leaves carry a `neg` flag instead of a rewritten
// operator, which keeps the ordered-comparison-across-kinds-is-FALSE rule
// (CompareSQL) intact under negation.
//
// Equivalence contract: a kernel exists only for expression shapes whose
// compiled closure form cannot error — comparisons, BETWEEN, IN-list, LIKE
// and IS NULL over columns resolved in the compile-time schema, with
// constant-foldable other operands. For those shapes the kernel selects
// exactly the rows CompiledExpr.EvalBool accepts, bit for bit; everything
// else compiles to the invalid kernel and the executor keeps the per-row
// closure path.

// VecInput binds a kernel invocation to a columnar image. ColMap maps
// schema ordinals to image columns (nil = identity); RowIdx maps positions
// to image rows (nil = identity) so a kernel can run over an intermediate
// result that carries base-table provenance.
type VecInput struct {
	Tbl    *colstore.Table
	ColMap []int
	RowIdx []int32
}

func (in *VecInput) col(ord int) *colstore.Column {
	if in.ColMap != nil {
		ord = in.ColMap[ord]
	}
	return in.Tbl.Cols[ord]
}

// selFn is one compiled kernel stage: sel in, selected subset out.
type selFn func(in *VecInput, sel, out []int32) []int32

// SelKernel is a compiled vectorized predicate. The zero value is invalid
// (no kernel; use the per-row closure path).
type SelKernel struct {
	fn   selFn
	nOrd int
	cols []int
}

// Valid reports whether a kernel was compiled.
func (k SelKernel) Valid() bool { return k.fn != nil }

// MinCols returns 1 + the highest schema ordinal the kernel reads; an image
// (or ColMap) must cover at least that many columns.
func (k SelKernel) MinCols() int { return k.nOrd }

// ColRefs appends every schema ordinal the kernel reads to dst (duplicates
// possible), like ExprKernel.ColRefs.
func (k SelKernel) ColRefs(dst []int) []int { return append(dst, k.cols...) }

// Run applies the kernel over tbl. sel holds ascending candidate positions;
// passing positions are appended to out (which must have cap ≥ len(sel)).
func (k SelKernel) Run(tbl *colstore.Table, cmap []int, rowIdx []int32, sel, out []int32) []int32 {
	in := VecInput{Tbl: tbl, ColMap: cmap, RowIdx: rowIdx}
	return k.fn(&in, sel, out)
}

// CompileSelKernel compiles predicate e against env into a vectorized
// selection kernel, or the invalid kernel when e has no vectorized form.
func CompileSelKernel(env *BoundSchema, e sqlast.Expr) SelKernel {
	if env == nil || e == nil {
		return SelKernel{}
	}
	c := &selCompiler{env: env}
	fn := c.compileSel(e, false)
	if fn == nil {
		return SelKernel{}
	}
	return SelKernel{fn: fn, nOrd: c.nOrd, cols: c.cols}
}

type selCompiler struct {
	env  *BoundSchema
	nOrd int
	// cols records every ordinal column resolved (SelKernel.ColRefs).
	cols []int
	// ext, when set, maps expression shapes the schema cannot resolve
	// (cell references, cv(), aggregates) to extra image ordinals the
	// caller promises to populate — the spreadsheet rule compiler's hook.
	ext func(sqlast.Expr) (int, bool)
	// pure remembers pureTree's verdict per node.
	pure map[sqlast.Expr]bool
}

// column resolves a kernel-eligible column reference: found in the
// compile-time schema, unambiguous. Correlated or ambiguous references
// disqualify the kernel (the closure path handles them).
func (c *selCompiler) column(e sqlast.Expr) (int, bool) {
	x, ok := e.(*sqlast.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, found, err := c.env.Resolve(x.Table, x.Name)
	if err != nil || !found {
		return 0, false
	}
	if idx+1 > c.nOrd {
		c.nOrd = idx + 1
	}
	c.cols = append(c.cols, idx)
	return idx, true
}

// compileSel lowers e (negated when neg) to a kernel stage, or nil.
func (c *selCompiler) compileSel(e sqlast.Expr, neg bool) selFn {
	if v, ok := c.foldConst(e); ok {
		return constSel(v, neg)
	}
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		if ord, ok := c.column(x); ok {
			return boolColSel(ord, neg)
		}
	case *sqlast.Unary:
		if x.Op == "NOT" {
			return c.compileSel(x.X, !neg)
		}
	case *sqlast.Binary:
		return c.compileBinarySel(x, neg)
	case *sqlast.Between:
		ord, ok := c.column(x.X)
		if !ok {
			return nil
		}
		lo, okLo := c.foldConst(x.Lo)
		hi, okHi := c.foldConst(x.Hi)
		if !okLo || !okHi {
			return nil
		}
		return betweenSel(ord, lo, hi, x.Not != neg)
	case *sqlast.InList:
		if ord, ok := c.column(x.X); ok {
			return inListSel(ord, x, neg)
		}
	case *sqlast.IsNull:
		if ord, ok := c.column(x.X); ok {
			return isNullSel(ord, x.Not != neg)
		}
	case *sqlast.Like:
		ord, ok := c.column(x.X)
		if !ok {
			return nil
		}
		lit, okP := x.Pattern.(*sqlast.Literal)
		if !okP {
			return nil
		}
		return likeSel(ord, lit.Val, x.Not != neg)
	}
	return nil
}

func (c *selCompiler) compileBinarySel(x *sqlast.Binary, neg bool) selFn {
	switch x.Op {
	case "AND", "OR":
		lf := c.compileSel(x.L, neg)
		if lf == nil {
			return nil
		}
		rf := c.compileSel(x.R, neg)
		if rf == nil {
			return nil
		}
		// De Morgan under negation: NOT(a AND b) = NOT a OR NOT b.
		if (x.Op == "AND") != neg {
			return andSel(lf, rf)
		}
		return orSel(lf, rf)
	case "=", "<>", "<", "<=", ">", ">=":
		if lOrd, ok := c.column(x.L); ok {
			if rOrd, ok := c.column(x.R); ok {
				return cmpColCol(lOrd, rOrd, x.Op, neg)
			}
			if cv, ok := c.foldConst(x.R); ok {
				return cmpColConst(lOrd, x.Op, cv, neg)
			}
			return nil
		}
		if rOrd, ok := c.column(x.R); ok {
			if cv, ok := c.foldConst(x.L); ok {
				// const OP col  ≡  col mirror(OP) const: Equal is symmetric
				// and Compare is antisymmetric, NaN and kind-order included.
				return cmpColConst(rOrd, mirrorOp(x.Op), cv, neg)
			}
		}
	}
	return nil
}

func mirrorOp(op string) string {
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
	return op // = and <> are symmetric
}

// andSel chains two stages: the second sees only rows the first selected.
// AND is TRUE iff both sides are TRUE, so set intersection is exact.
func andSel(a, b selFn) selFn {
	return func(in *VecInput, sel, out []int32) []int32 {
		tmp := colstore.GetSel(len(sel))
		mid := a(in, sel, *tmp)
		out = b(in, mid, out)
		*tmp = mid
		colstore.PutSel(tmp)
		return out
	}
}

// orSel evaluates both branches over the same input and merge-unions their
// ascending selections. OR is TRUE iff either side is TRUE.
func orSel(a, b selFn) selFn {
	return func(in *VecInput, sel, out []int32) []int32 {
		t1 := colstore.GetSel(len(sel))
		t2 := colstore.GetSel(len(sel))
		ra := a(in, sel, *t1)
		rb := b(in, sel, *t2)
		i, j := 0, 0
		for i < len(ra) && j < len(rb) {
			switch {
			case ra[i] < rb[j]:
				out = append(out, ra[i])
				i++
			case ra[i] > rb[j]:
				out = append(out, rb[j])
				j++
			default:
				out = append(out, ra[i])
				i++
				j++
			}
		}
		out = append(out, ra[i:]...)
		out = append(out, rb[j:]...)
		*t1, *t2 = ra, rb
		colstore.PutSel(t1)
		colstore.PutSel(t2)
		return out
	}
}

// constSel handles predicates folded to a constant: TRUE passes every
// candidate row, anything else (FALSE, NULL, non-boolean) passes none —
// and under negation NOT maps non-NULL non-TRUE to TRUE.
func constSel(v types.Value, neg bool) selFn {
	pass := v.Bool()
	if neg {
		pass = !v.IsNull() && !v.Bool()
	}
	if !pass {
		return noneSel()
	}
	return func(in *VecInput, sel, out []int32) []int32 {
		return append(out, sel...)
	}
}

func noneSel() selFn {
	return func(in *VecInput, sel, out []int32) []int32 { return out }
}

// rowAt maps a position through the optional provenance row index.
func rowAt(ridx []int32, p int32) int {
	if ridx != nil {
		return int(ridx[p])
	}
	return int(p)
}

// genericSel is the untyped fallback for operand kinds a kernel has no
// loop for (mismatched constant kinds, LIKE over a non-string column):
// per-row boxed values through pred, NULL rows skipped (a NULL operand never
// yields TRUE in any kernel leaf). Still a batch kernel — no Context, no
// binding — just not typed.
func genericSel(in *VecInput, c *colstore.Column, sel, out []int32, pred func(types.Value) bool) []int32 {
	ridx := in.RowIdx
	for _, p := range sel {
		r := rowAt(ridx, p)
		v := c.Value(r) // interp-ok: kind-mismatch fallback, no typed loop applies
		if v.IsNull() {
			continue
		}
		if pred(v) {
			out = append(out, p)
		}
	}
	return out
}

// appendNonNull passes every non-NULL row: the shape of "comparison whose
// outcome is row-independent but still NULL-gated".
func appendNonNull(in *VecInput, c *colstore.Column, sel, out []int32) []int32 {
	ridx := in.RowIdx
	for _, p := range sel {
		if !c.IsNull(rowAt(ridx, p)) {
			out = append(out, p)
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dictTab caches a per-dictionary-code predicate outcome for one column
// instance. Kernels sharing a plan run concurrently on morsel workers; the
// atomic pointer makes racing rebuilds idempotent, never wrong.
type dictTab struct {
	col  *colstore.Column
	pass []bool
}

func dictPassTab(cache *atomic.Pointer[dictTab], c *colstore.Column, f func(string) bool) []bool {
	if t := cache.Load(); t != nil && t.col == c {
		return t.pass
	}
	pass := make([]bool, len(c.Dict))
	for i, s := range c.Dict {
		pass[i] = f(s)
	}
	cache.Store(&dictTab{col: c, pass: pass})
	return pass
}

// cmpColConst compiles `col OP const`. Comparison tables fold the operator
// and the negation at compile time; representation dispatch happens once
// per invocation (a cached plan may see a rebuilt image whose columns
// changed representation after DML).
func cmpColConst(ord int, op string, cv types.Value, neg bool) selFn {
	if cv.IsNull() {
		return noneSel() // CompareSQL yields NULL for every row; NOT(NULL) too
	}
	eqOp := op == "=" || op == "<>"
	want := op == "="
	var etab [2]bool
	etab[0] = (false == want) != neg
	etab[1] = (true == want) != neg
	var tab [3]bool // index Compare(v, cv)+1
	if !eqOp {
		test := orderTest(op)
		for i, cmp := range [3]int{-1, 0, 1} {
			tab[i] = test(cmp) != neg
		}
	}
	passMismatch := neg // ordered numeric/non-numeric mismatch is FALSE
	cvN := types.NormNum(cv)
	cvIsInt := cvN.K == types.KindInt
	cI := cvN.I
	cIf := float64(cI)
	cF := cv.Float()
	var cache atomic.Pointer[dictTab]

	// cmpKindConst reports the row-independent outcome, if any, for a typed
	// column of kind k (Equal and ordered Compare depend only on the kinds
	// once they are incompatible).
	cmpKindConst := func(k types.Kind) (pass, constant bool) {
		kNum := k == types.KindInt || k == types.KindFloat
		cvNum := cv.IsNumeric()
		if eqOp {
			if kNum && cvNum {
				return false, false
			}
			if k == cvN.K {
				return false, false
			}
			return etab[0], true
		}
		if kNum != cvNum {
			return passMismatch, true
		}
		if kNum || k == cv.K {
			return false, false
		}
		cmp := 1
		if k < cv.K {
			cmp = -1
		}
		return tab[cmp+1], true
	}

	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		if c.Kind == types.KindNull {
			return out // all-null column: never TRUE
		}
		if pass, constant := cmpKindConst(c.Kind); constant {
			if pass {
				return appendNonNull(in, c, sel, out)
			}
			return out
		}
		ridx := in.RowIdx
		switch c.Kind {
		case types.KindInt:
			is := c.Ints
			switch {
			case eqOp && cvIsInt:
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(is[r] == cI)] {
						out = append(out, p)
					}
				}
			case eqOp:
				// cv stayed FLOAT (non-integral or out of int64 range):
				// Equal reduces to widening float comparison.
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(float64(is[r]) == cF)] {
						out = append(out, p)
					}
				}
			default:
				// Ordered numeric comparison is float-widening (types.Compare).
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					af := float64(is[r])
					idx := 1
					if af < cF {
						idx = 0
					} else if af > cF {
						idx = 2
					}
					if tab[idx] {
						out = append(out, p)
					}
				}
			}
		case types.KindFloat:
			fs := c.Floats
			switch {
			case eqOp && cvIsInt:
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					v := fs[r]
					var veq bool
					if types.IntKeyable(v) {
						veq = int64(v) == cI
					} else {
						veq = v == cIf
					}
					if etab[b2i(veq)] {
						out = append(out, p)
					}
				}
			case eqOp:
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(fs[r] == cF)] {
						out = append(out, p)
					}
				}
			default:
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					af := fs[r]
					idx := 1
					if af < cF {
						idx = 0
					} else if af > cF {
						idx = 2
					}
					if tab[idx] {
						out = append(out, p)
					}
				}
			}
		case types.KindString:
			cs := cv.S
			switch {
			case c.IsDict() && eqOp:
				code, ok := c.DictCode(cs)
				if !ok {
					if etab[0] {
						return appendNonNull(in, c, sel, out)
					}
					return out
				}
				codes := c.Codes
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(codes[r] == code)] {
						out = append(out, p)
					}
				}
			case c.IsDict():
				pass := dictPassTab(&cache, c, func(s string) bool {
					cmp := 1
					if s < cs {
						cmp = -1
					} else if s == cs {
						cmp = 0
					}
					return tab[cmp+1]
				})
				codes := c.Codes
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if pass[codes[r]] {
						out = append(out, p)
					}
				}
			case eqOp:
				ss := c.Strs
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(ss[r] == cs)] {
						out = append(out, p)
					}
				}
			default:
				ss := c.Strs
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					s := ss[r]
					idx := 1
					if s < cs {
						idx = 0
					} else if s > cs {
						idx = 2
					}
					if tab[idx] {
						out = append(out, p)
					}
				}
			}
		case types.KindBool:
			is := c.Ints
			if eqOp {
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if etab[b2i(is[r] == cv.I)] {
						out = append(out, p)
					}
				}
			} else {
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					idx := 1
					if is[r] < cv.I {
						idx = 0
					} else if is[r] > cv.I {
						idx = 2
					}
					if tab[idx] {
						out = append(out, p)
					}
				}
			}
		}
		return out
	}
}

// cmpColCol compiles `colA OP colB`.
func cmpColCol(la, ra int, op string, neg bool) selFn {
	eqOp := op == "=" || op == "<>"
	want := op == "="
	var etab [2]bool
	etab[0] = (false == want) != neg
	etab[1] = (true == want) != neg
	var tab [3]bool
	if !eqOp {
		test := orderTest(op)
		for i, cmp := range [3]int{-1, 0, 1} {
			tab[i] = test(cmp) != neg
		}
	}
	return func(in *VecInput, sel, out []int32) []int32 {
		a, b := in.col(la), in.col(ra)
		ridx := in.RowIdx
		aNum := a.Kind == types.KindInt || a.Kind == types.KindFloat
		bNum := b.Kind == types.KindInt || b.Kind == types.KindFloat
		switch {
		case a.Kind == types.KindInt && b.Kind == types.KindInt:
			ai, bi := a.Ints, b.Ints
			for _, p := range sel {
				r := rowAt(ridx, p)
				if a.IsNull(r) || b.IsNull(r) {
					continue
				}
				if eqOp {
					if etab[b2i(ai[r] == bi[r])] {
						out = append(out, p)
					}
					continue
				}
				af, bf := float64(ai[r]), float64(bi[r])
				idx := 1
				if af < bf {
					idx = 0
				} else if af > bf {
					idx = 2
				}
				if tab[idx] {
					out = append(out, p)
				}
			}
		case aNum && bNum:
			// Mixed or float numerics: Equal on two numerics reduces to exact
			// float64 equality (integral floats normalize to the same int;
			// cross-kind pairs widen; NaN never equals), ordered comparison
			// widens — both are plain float64 compares.
			for _, p := range sel {
				r := rowAt(ridx, p)
				if a.IsNull(r) || b.IsNull(r) {
					continue
				}
				af, bf := a.NumFloat(r), b.NumFloat(r)
				if eqOp {
					if etab[b2i(numEq(a, b, r))] {
						out = append(out, p)
					}
					continue
				}
				idx := 1
				if af < bf {
					idx = 0
				} else if af > bf {
					idx = 2
				}
				if tab[idx] {
					out = append(out, p)
				}
			}
		case a.Kind == types.KindString && b.Kind == types.KindString:
			for _, p := range sel {
				r := rowAt(ridx, p)
				if a.IsNull(r) || b.IsNull(r) {
					continue
				}
				as, bs := a.Str(r), b.Str(r)
				if eqOp {
					if etab[b2i(as == bs)] {
						out = append(out, p)
					}
					continue
				}
				idx := 1
				if as < bs {
					idx = 0
				} else if as > bs {
					idx = 2
				}
				if tab[idx] {
					out = append(out, p)
				}
			}
		default:
			for _, p := range sel {
				r := rowAt(ridx, p)
				av := a.Value(r) // interp-ok: cross-kind column pair (say STRING against INT)
				bv := b.Value(r) // interp-ok: cross-kind column pair (say STRING against INT)
				if av.IsNull() || bv.IsNull() {
					continue
				}
				if CompareSQL(op, av, bv).Bool() != neg {
					out = append(out, p)
				}
			}
		}
		return out
	}
}

// numEq replicates types.Equal for two non-NULL numeric column slots:
// equal iff both normalize to the same int64, or widen to equal float64s.
func numEq(a, b *colstore.Column, r int) bool {
	if a.Kind == types.KindInt && b.Kind == types.KindInt {
		return a.Ints[r] == b.Ints[r]
	}
	if a.Kind == types.KindInt {
		f := b.Floats[r]
		if types.IntKeyable(f) {
			return int64(f) == a.Ints[r]
		}
		return f == float64(a.Ints[r])
	}
	if b.Kind == types.KindInt {
		f := a.Floats[r]
		if types.IntKeyable(f) {
			return int64(f) == b.Ints[r]
		}
		return f == float64(b.Ints[r])
	}
	// float vs float: normalization maps equal integral values to equal
	// ints and distinct ones to distinct ints, so == is exact either way.
	return a.Floats[r] == b.Floats[r]
}

// betweenSel compiles `col [NOT] BETWEEN lo AND hi` with constant bounds.
func betweenSel(ord int, lo, hi types.Value, notf bool) selFn {
	var cache atomic.Pointer[dictTab]
	generic := func(v types.Value) bool {
		res := and3(CompareSQL(">=", v, lo), CompareSQL("<=", v, hi))
		if notf {
			res = not3(res)
		}
		return res.Bool()
	}
	numFast := lo.IsNumeric() && hi.IsNumeric()
	strFast := lo.K == types.KindString && hi.K == types.KindString
	lof, hif := lo.Float(), hi.Float()
	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		if c.Kind == types.KindNull {
			return out
		}
		ridx := in.RowIdx
		switch {
		case numFast && c.Kind == types.KindInt:
			is := c.Ints
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				af := float64(is[r])
				if (!(af < lof) && !(af > hif)) != notf {
					out = append(out, p)
				}
			}
		case numFast && c.Kind == types.KindFloat:
			fs := c.Floats
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				af := fs[r]
				if (!(af < lof) && !(af > hif)) != notf {
					out = append(out, p)
				}
			}
		case strFast && c.Kind == types.KindString && c.IsDict():
			pass := dictPassTab(&cache, c, func(s string) bool {
				return (s >= lo.S && s <= hi.S) != notf
			})
			codes := c.Codes
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				if pass[codes[r]] {
					out = append(out, p)
				}
			}
		case strFast && c.Kind == types.KindString:
			ss := c.Strs
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				if (ss[r] >= lo.S && ss[r] <= hi.S) != notf {
					out = append(out, p)
				}
			}
		default:
			// NULL or kind-mismatched bounds: row-wise three-valued logic.
			return genericSel(in, c, sel, out, generic)
		}
		return out
	}
}

// inListSel compiles `col [NOT] IN (literals...)`. Membership sets are
// built once per plan; the float view of the int set covers the rounding
// edge where a huge float equals a distinct int64 after widening.
func inListSel(ord int, x *sqlast.InList, neg bool) selFn {
	lits := make([]types.Value, 0, len(x.List))
	sawNull := false
	for _, it := range x.List {
		lit, ok := it.(*sqlast.Literal)
		if !ok {
			return nil
		}
		if lit.Val.IsNull() {
			sawNull = true
		}
		lits = append(lits, lit.Val)
	}
	notf := x.Not != neg
	if notf && sawNull {
		// NOT IN with a NULL member is never TRUE: not3(TRUE)=FALSE,
		// not3(NULL)=NULL.
		return noneSel()
	}
	intSet := map[int64]struct{}{}
	fltSet := map[float64]struct{}{}
	fltView := map[float64]struct{}{}
	strSet := map[string]struct{}{}
	var boolSet [2]bool
	for _, v := range lits {
		switch n := types.NormNum(v); n.K {
		case types.KindInt:
			intSet[n.I] = struct{}{}
			fltView[float64(n.I)] = struct{}{}
		case types.KindFloat:
			fltSet[n.F] = struct{}{}
			fltView[n.F] = struct{}{}
		case types.KindString:
			strSet[n.S] = struct{}{}
		case types.KindBool:
			boolSet[n.I&1] = true
		}
	}
	var cache atomic.Pointer[dictTab]
	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		if c.Kind == types.KindNull {
			return out
		}
		ridx := in.RowIdx
		switch c.Kind {
		case types.KindInt:
			is := c.Ints
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				v := is[r]
				_, found := intSet[v]
				if !found {
					_, found = fltSet[float64(v)]
				}
				if found != notf {
					out = append(out, p)
				}
			}
		case types.KindFloat:
			fs := c.Floats
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				v := fs[r]
				var found bool
				if types.IntKeyable(v) {
					_, found = intSet[int64(v)]
				} else {
					_, found = fltView[v]
				}
				if found != notf {
					out = append(out, p)
				}
			}
		case types.KindString:
			if c.IsDict() {
				pass := dictPassTab(&cache, c, func(s string) bool {
					_, found := strSet[s]
					return found != notf
				})
				codes := c.Codes
				for _, p := range sel {
					r := rowAt(ridx, p)
					if c.IsNull(r) {
						continue
					}
					if pass[codes[r]] {
						out = append(out, p)
					}
				}
				return out
			}
			ss := c.Strs
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				_, found := strSet[ss[r]]
				if found != notf {
					out = append(out, p)
				}
			}
		case types.KindBool:
			is := c.Ints
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				if boolSet[is[r]&1] != notf {
					out = append(out, p)
				}
			}
		}
		return out
	}
}

// likeSel compiles `col [NOT] LIKE 'pattern'` with a precompiled matcher.
func likeSel(ord int, pat types.Value, notf bool) selFn {
	if pat.IsNull() {
		return noneSel() // result is NULL for every row, negated or not
	}
	m := compileLike(pat.String())
	var cache atomic.Pointer[dictTab]
	generic := func(v types.Value) bool {
		return m.match(v.String()) != notf
	}
	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		if c.Kind != types.KindString && c.Kind != types.KindNull {
			// LIKE stringifies non-string operands; rare, keep it generic.
			return genericSel(in, c, sel, out, generic)
		}
		if c.Kind == types.KindNull {
			return out
		}
		ridx := in.RowIdx
		if c.IsDict() {
			pass := dictPassTab(&cache, c, func(s string) bool {
				return m.match(s) != notf
			})
			codes := c.Codes
			for _, p := range sel {
				r := rowAt(ridx, p)
				if c.IsNull(r) {
					continue
				}
				if pass[codes[r]] {
					out = append(out, p)
				}
			}
			return out
		}
		ss := c.Strs
		for _, p := range sel {
			r := rowAt(ridx, p)
			if c.IsNull(r) {
				continue
			}
			if m.match(ss[r]) != notf {
				out = append(out, p)
			}
		}
		return out
	}
}

// isNullSel compiles `col IS [NOT] NULL`; the result is two-valued, so
// negation is a plain flag flip.
func isNullSel(ord int, notf bool) selFn {
	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		ridx := in.RowIdx
		for _, p := range sel {
			if c.IsNull(rowAt(ridx, p)) != notf {
				out = append(out, p)
			}
		}
		return out
	}
}

// PlainOrdinal reports the schema ordinal e reads when e is a plain,
// unambiguously resolvable column reference. The executor uses it to turn
// projections into gathers and join/group/partition keys into direct
// column encodes.
func PlainOrdinal(env *BoundSchema, e sqlast.Expr) (int, bool) {
	x, ok := e.(*sqlast.ColumnRef)
	if !ok || env == nil {
		return 0, false
	}
	idx, found, err := env.Resolve(x.Table, x.Name)
	if err != nil || !found {
		return 0, false
	}
	return idx, true
}

// boolColSel compiles a bare column reference used as a predicate: TRUE
// only for a BOOL true value; NOT of a non-NULL non-TRUE value is TRUE.
func boolColSel(ord int, neg bool) selFn {
	return func(in *VecInput, sel, out []int32) []int32 {
		c := in.col(ord)
		if c.Kind == types.KindNull {
			return out
		}
		ridx := in.RowIdx
		if c.Kind != types.KindBool {
			// Non-boolean value: Bool() is false, so the predicate is never
			// TRUE — and NOT of it is TRUE wherever the value is non-NULL.
			if neg {
				return appendNonNull(in, c, sel, out)
			}
			return out
		}
		is := c.Ints
		for _, p := range sel {
			r := rowAt(ridx, p)
			if c.IsNull(r) {
				continue
			}
			if (is[r] != 0) != neg {
				out = append(out, p)
			}
		}
		return out
	}
}
