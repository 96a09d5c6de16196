package eval

import (
	"fmt"
	"strconv"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// This file compiles *compute* expressions — projection arithmetic, formula
// right sides, aggregate arguments — into vectorized kernels that evaluate a
// whole chunk per call and produce one dense typed output vector, the
// counterpart of vector.go's selection kernels.
//
// Equivalence contract: a compute kernel exists only for expression shapes
// whose compiled-closure evaluation it can reproduce bit for bit under
// KeepNav — constants, schema-resolved columns, unary minus, + - * / and
// string concatenation. On that domain the only runtime error the closure
// path can raise is types.Arith's "division by zero", whose message carries
// no row identity, so evaluating a whole vector before (or after) another
// subexpression is observably identical to row-at-a-time order: any failing
// input fails the statement with the same error either way. Shapes with
// other failure modes (non-numeric operands, CASE, AND/OR, function calls,
// cell probes, subqueries) do not compile and keep the per-row closure path.
//
// Null propagation mirrors types.Arith exactly: a NULL operand nulls the
// result slot *before* the zero-denominator check (NULL / 0 is NULL, not an
// error), integer ⊕ integer stays integer with Go wraparound, division is
// always float, mixed operands widen via float64(int) — the same machine
// conversion Value.Float() performs.
//
// Kind support is decided per image at run time (a column's representation
// is a property of the data, not the schema): Supported walks the tree
// against the actual columns and the executor commits to the vectorized
// operator only when every kernel accepts every input column, so fallback is
// whole-operator, never mid-vector.

// ExprVec is the dense output of a compute kernel: one slot per selected
// position. Exactly one representation is populated:
//
//   - KindInt/KindBool: Ints (booleans store 0/1, mirroring types.Value.I)
//   - KindFloat:        Floats
//   - KindString:       Strs
//   - KindNull:         no vector (every slot is NULL)
//
// Nulls, when non-nil, flags NULL slots of a typed vector; a NULL slot holds
// the zero element and must not be interpreted — the same invariant as
// colstore.Column.
type ExprVec struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool

	n int
}

// Len returns the number of slots.
func (v *ExprVec) Len() int { return v.n }

// NullAt reports whether slot k is NULL.
func (v *ExprVec) NullAt(k int) bool {
	return v.Kind == types.KindNull || (v.Nulls != nil && v.Nulls[k])
}

// BoxValue reconstructs slot k as a boxed scalar, exactly the value the
// closure path would have produced. Callers box once per output cell when
// materializing result rows; kernel-internal loops stay on the vectors.
func (v *ExprVec) BoxValue(k int) types.Value {
	if v.NullAt(k) {
		return types.Null
	}
	switch v.Kind {
	case types.KindInt:
		return types.Value{K: types.KindInt, I: v.Ints[k]}
	case types.KindBool:
		return types.Value{K: types.KindBool, I: v.Ints[k]}
	case types.KindFloat:
		return types.Value{K: types.KindFloat, F: v.Floats[k]}
	case types.KindString:
		return types.Value{K: types.KindString, S: v.Strs[k]}
	}
	return types.Null
}

// Column converts the vector into a colstore column (string vectors use
// plain storage; a computed vector has no dictionary). The column shares the
// vector's backing arrays, so the ExprVec must not be reused afterwards.
func (v *ExprVec) Column() *colstore.Column {
	c := &colstore.Column{Kind: v.Kind, N: v.n}
	if v.Kind == types.KindNull {
		c.Nulls = colstore.NewBitmap(v.n)
		for i := 0; i < v.n; i++ {
			c.Nulls.Set(i)
		}
		return c
	}
	switch v.Kind {
	case types.KindInt, types.KindBool:
		c.Ints = v.Ints
	case types.KindFloat:
		c.Floats = v.Floats
	case types.KindString:
		c.Strs = v.Strs
	}
	if v.Nulls != nil {
		for i, isn := range v.Nulls {
			if isn {
				if c.Nulls == nil {
					c.Nulls = colstore.NewBitmap(v.n)
				}
				c.Nulls.Set(i)
			}
		}
	}
	return c
}

// numFloat widens numeric slot k to float64 (slot must not be NULL) — the
// same widening Value.Float() applies on the closure path.
func (v *ExprVec) numFloat(k int) float64 {
	if v.Kind == types.KindInt {
		return float64(v.Ints[k])
	}
	return v.Floats[k]
}

// slotStr renders slot k the way Value.String() does (slot must not be NULL).
func (v *ExprVec) slotStr(k int) string {
	switch v.Kind {
	case types.KindInt:
		return strconv.FormatInt(v.Ints[k], 10)
	case types.KindFloat:
		return strconv.FormatFloat(v.Floats[k], 'g', -1, 64)
	case types.KindString:
		return v.Strs[k]
	case types.KindBool:
		if v.Ints[k] != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

type exprOp uint8

const (
	opConst exprOp = iota
	opCol
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opConcat
	opCase
)

type exprNode struct {
	op   exprOp
	ord  int         // opCol: schema ordinal
	val  types.Value // opConst: folded constant; opCase: the ELSE arm
	l, r *exprNode
	// opCase: the WHEN constants and their THEN arms; l is the operand.
	whens, thens []types.Value
}

// ExprKernel is a compiled vectorized compute expression. The zero value is
// invalid (no kernel; use the per-row closure path).
type ExprKernel struct {
	root *exprNode
	nOrd int
}

// Valid reports whether a kernel was compiled.
func (k ExprKernel) Valid() bool { return k.root != nil }

// MinCols returns 1 + the highest schema ordinal the kernel reads.
func (k ExprKernel) MinCols() int { return k.nOrd }

// Column reports the ordinal a kernel that is a bare column read reads
// (its output is that column gathered over the selection), ok=false for any
// other kernel.
func (k ExprKernel) Column() (ord int, ok bool) {
	if k.root != nil && k.root.op == opCol {
		return k.root.ord, true
	}
	return 0, false
}

// ColRefs appends every column ordinal the kernel reads to dst (duplicates
// possible). Callers use it to materialize only the image columns a kernel
// will touch.
func (k ExprKernel) ColRefs(dst []int) []int { return exprColRefs(k.root, dst) }

func exprColRefs(n *exprNode, dst []int) []int {
	if n == nil {
		return dst
	}
	if n.op == opCol {
		dst = append(dst, n.ord)
	}
	dst = exprColRefs(n.l, dst)
	return exprColRefs(n.r, dst)
}

// CompileExprKernel compiles compute expression e against env into a
// vectorized kernel, or the invalid kernel when e has no vectorized form.
func CompileExprKernel(env *BoundSchema, e sqlast.Expr) ExprKernel {
	return CompileExprKernelExt(env, e, nil)
}

// CompileExprKernelExt is CompileExprKernel with an extension hook: ext maps
// expression shapes the schema cannot resolve (cell references, cv(),
// aggregates) to extra image ordinals the caller populates before Run. The
// hook is consulted after constant folding and before structural lowering,
// so an extended leaf behaves exactly like a schema column read.
func CompileExprKernelExt(env *BoundSchema, e sqlast.Expr, ext func(sqlast.Expr) (int, bool)) ExprKernel {
	if env == nil || e == nil {
		return ExprKernel{}
	}
	c := &selCompiler{env: env, ext: ext}
	root := compileExprNode(c, e)
	if root == nil {
		return ExprKernel{}
	}
	return ExprKernel{root: root, nOrd: c.nOrd}
}

func compileExprNode(c *selCompiler, e sqlast.Expr) *exprNode {
	if v, ok := c.foldConst(e); ok {
		return &exprNode{op: opConst, val: v}
	}
	if c.ext != nil {
		if ord, ok := c.ext(e); ok {
			if ord+1 > c.nOrd {
				c.nOrd = ord + 1
			}
			return &exprNode{op: opCol, ord: ord}
		}
	}
	switch x := e.(type) {
	case *sqlast.ColumnRef:
		if ord, ok := c.column(x); ok {
			return &exprNode{op: opCol, ord: ord}
		}
	case *sqlast.Unary:
		if x.Op == "-" {
			if l := compileExprNode(c, x.X); l != nil {
				return &exprNode{op: opNeg, l: l}
			}
		}
	case *sqlast.Case:
		return compileCaseNode(c, x)
	case *sqlast.Binary:
		var op exprOp
		switch x.Op {
		case "+":
			op = opAdd
		case "-":
			op = opSub
		case "*":
			op = opMul
		case "/":
			op = opDiv
		case "||":
			op = opConcat
		default:
			return nil
		}
		l := compileExprNode(c, x.L)
		if l == nil {
			return nil
		}
		r := compileExprNode(c, x.R)
		if r == nil {
			return nil
		}
		return &exprNode{op: op, l: l, r: r}
	}
	return nil
}

// compileCaseNode lowers a simple CASE over a column whose WHEN values and
// THEN/ELSE arms are constants, the arms of one kind (NULL arms aside): the
// result is one arm per operand value. Anything else — a searched CASE,
// a computed operand or arm, arms of two kinds — stays on the closure.
func compileCaseNode(c *selCompiler, x *sqlast.Case) *exprNode {
	if x.Operand == nil {
		return nil
	}
	op := compileExprNode(c, x.Operand)
	if op == nil || op.op != opCol {
		return nil
	}
	n := &exprNode{op: opCase, l: op, val: types.Null}
	kind := types.KindNull
	arm := func(e sqlast.Expr) (types.Value, bool) {
		v, ok := c.foldConst(e)
		if !ok || v.K == types.KindNull {
			return v, ok
		}
		if kind != types.KindNull && v.K != kind {
			return v, false
		}
		kind = v.K
		return v, true
	}
	for _, w := range x.Whens {
		wv, ok := c.foldConst(w.Cond)
		if !ok {
			return nil
		}
		tv, ok := arm(w.Then)
		if !ok {
			return nil
		}
		n.whens, n.thens = append(n.whens, wv), append(n.thens, tv)
	}
	if x.Else != nil {
		ev, ok := arm(x.Else)
		if !ok {
			return nil
		}
		n.val = ev
	}
	return n
}

// armKind is the kind of a CASE node's non-NULL arms, NULL when it has none.
func (n *exprNode) armKind() types.Kind {
	for _, v := range n.thens {
		if v.K != types.KindNull {
			return v.K
		}
	}
	return n.val.K
}

func numericOrNull(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindNull
}

// kindIn decides, against the actual columns of an image, whether the node
// evaluates on the vectorized path and what kind its output vector has.
// Shapes the closure path would reject with a "non-numeric operand" error —
// strings or booleans under arithmetic — are unsupported so the fallback
// raises the identical error.
func (n *exprNode) kindIn(in *VecInput) (types.Kind, bool) {
	switch n.op {
	case opConst:
		return n.val.K, true
	case opCol:
		c := in.col(n.ord)
		if c == nil { // a column the image does not serve
			return 0, false
		}
		return c.Kind, true
	case opNeg:
		k, ok := n.l.kindIn(in)
		if !ok || !numericOrNull(k) {
			return 0, false
		}
		return k, true
	case opAdd, opSub, opMul, opDiv:
		lk, ok := n.l.kindIn(in)
		if !ok || !numericOrNull(lk) {
			return 0, false
		}
		rk, ok := n.r.kindIn(in)
		if !ok || !numericOrNull(rk) {
			return 0, false
		}
		if lk == types.KindNull || rk == types.KindNull {
			return types.KindNull, true
		}
		if n.op == opDiv {
			return types.KindFloat, true
		}
		if lk == types.KindInt && rk == types.KindInt {
			return types.KindInt, true
		}
		return types.KindFloat, true
	case opConcat:
		lk, ok := n.l.kindIn(in)
		if !ok {
			return 0, false
		}
		rk, ok := n.r.kindIn(in)
		if !ok {
			return 0, false
		}
		if lk == types.KindNull || rk == types.KindNull {
			return types.KindNull, true
		}
		return types.KindString, true
	case opCase:
		if _, ok := n.l.kindIn(in); !ok {
			return 0, false
		}
		return n.armKind(), true
	}
	return 0, false
}

// Supported reports whether the kernel evaluates on the vectorized path over
// an image with the given column mapping (run-time check: representation is
// a property of the data). The executor commits to a vectorized operator
// only when every kernel involved is supported, so fallback is whole-
// operator and error ordering is preserved.
func (k ExprKernel) Supported(tbl *colstore.Table, cmap []int) bool {
	_, ok := k.OutKind(tbl, cmap)
	return ok
}

// OutKind returns the kind of the kernel's output vector over an image with
// the given column mapping, with ok=false when the kernel is unsupported
// there. The batch aggregation path uses the kind to pick its typed
// accumulator loop before running anything.
func (k ExprKernel) OutKind(tbl *colstore.Table, cmap []int) (types.Kind, bool) {
	if k.root == nil {
		return 0, false
	}
	in := VecInput{Tbl: tbl, ColMap: cmap}
	return k.root.kindIn(&in)
}

// Run evaluates the kernel over the positions in sel, producing one dense
// output slot per position. The caller must have checked Supported against
// the same image.
func (k ExprKernel) Run(tbl *colstore.Table, cmap []int, rowIdx []int32, sel []int32) (*ExprVec, error) {
	in := VecInput{Tbl: tbl, ColMap: cmap, RowIdx: rowIdx}
	return k.root.evalVec(&in, sel)
}

func (n *exprNode) evalVec(in *VecInput, sel []int32) (*ExprVec, error) {
	switch n.op {
	case opConst:
		return constVec(n.val, len(sel)), nil
	case opCol:
		return gatherCol(in, n.ord, sel), nil
	case opNeg:
		l, err := n.l.evalVec(in, sel)
		if err != nil {
			return nil, err
		}
		return negVec(l), nil
	case opCase:
		return caseVec(n, in.col(n.l.ord), in.RowIdx, sel), nil
	case opConcat:
		// Both operands evaluate unconditionally, like the closure path
		// (concat and arithmetic never short-circuit), so a division by zero
		// on either side surfaces regardless of the other side's NULLs.
		l, err := n.l.evalVec(in, sel)
		if err != nil {
			return nil, err
		}
		r, err := n.r.evalVec(in, sel)
		if err != nil {
			return nil, err
		}
		return concatVec(l, r), nil
	default:
		l, err := n.l.evalVec(in, sel)
		if err != nil {
			return nil, err
		}
		r, err := n.r.evalVec(in, sel)
		if err != nil {
			return nil, err
		}
		return arithVec(n.op, l, r)
	}
}

// caseVec evaluates a simple CASE over column c at the selected rows. The
// arm of an operand value is the first WHEN it equals as the closure
// compares (neither side NULL, types.Equal), else the ELSE arm: computed once
// per dictionary code over a dictionary column, once per row otherwise.
func caseVec(n *exprNode, c *colstore.Column, ridx []int32, sel []int32) *ExprVec {
	arms := append(append(make([]types.Value, 0, len(n.thens)+1), n.thens...), n.val)
	armOf := func(v types.Value) int {
		for i, w := range n.whens {
			if !w.IsNull() && types.Equal(v, w) {
				return i
			}
		}
		return len(n.whens)
	}
	var byCode []int32
	if c.IsDict() {
		byCode = make([]int32, len(c.Dict))
		for code, s := range c.Dict {
			byCode[code] = int32(armOf(types.Value{K: types.KindString, S: s}))
		}
	}
	m := len(sel)
	out := &ExprVec{Kind: n.armKind(), n: m}
	switch out.Kind {
	case types.KindNull:
		return out
	case types.KindFloat:
		out.Floats = make([]float64, m)
	case types.KindString:
		out.Strs = make([]string, m)
	default: // INT, BOOL
		out.Ints = make([]int64, m)
	}
	for k, p := range sel {
		r := rowAt(ridx, p)
		a := len(n.whens) // a NULL operand takes the ELSE arm
		switch {
		case c.IsNull(r):
		case byCode != nil:
			a = int(byCode[c.Codes[r]])
		case c.Kind == types.KindFloat:
			a = armOf(types.Value{K: types.KindFloat, F: c.Floats[r]})
		case c.Kind == types.KindString:
			a = armOf(types.Value{K: types.KindString, S: c.Strs[r]})
		default: // INT, BOOL
			a = armOf(types.Value{K: c.Kind, I: c.Ints[r]})
		}
		v := arms[a]
		switch v.K {
		case types.KindNull:
			if out.Nulls == nil {
				out.Nulls = make([]bool, m)
			}
			out.Nulls[k] = true
		case types.KindFloat:
			out.Floats[k] = v.F
		case types.KindString:
			out.Strs[k] = v.S
		default: // INT, BOOL
			out.Ints[k] = v.I
		}
	}
	return out
}

// constVec broadcasts a folded constant across m slots.
func constVec(v types.Value, m int) *ExprVec {
	out := &ExprVec{Kind: v.K, n: m}
	switch v.K {
	case types.KindInt, types.KindBool:
		out.Ints = make([]int64, m)
		for k := range out.Ints {
			out.Ints[k] = v.I
		}
	case types.KindFloat:
		out.Floats = make([]float64, m)
		for k := range out.Floats {
			out.Floats[k] = v.F
		}
	case types.KindString:
		out.Strs = make([]string, m)
		for k := range out.Strs {
			out.Strs[k] = v.S
		}
	}
	return out
}

// gatherCol copies the selected rows of a typed column into a dense vector.
// NULL slots keep the zero element.
func gatherCol(in *VecInput, ord int, sel []int32) *ExprVec {
	c := in.col(ord)
	ridx := in.RowIdx
	m := len(sel)
	out := &ExprVec{Kind: c.Kind, n: m}
	if c.Kind == types.KindNull {
		return out
	}
	var nulls []bool
	if c.Nulls != nil {
		nulls = make([]bool, m)
	}
	switch c.Kind {
	case types.KindInt, types.KindBool:
		out.Ints = make([]int64, m)
		for k, p := range sel {
			r := rowAt(ridx, p)
			if nulls != nil && c.Nulls.Get(r) {
				nulls[k] = true
				continue
			}
			out.Ints[k] = c.Ints[r]
		}
	case types.KindFloat:
		out.Floats = make([]float64, m)
		for k, p := range sel {
			r := rowAt(ridx, p)
			if nulls != nil && c.Nulls.Get(r) {
				nulls[k] = true
				continue
			}
			out.Floats[k] = c.Floats[r]
		}
	case types.KindString:
		out.Strs = make([]string, m)
		if c.IsDict() {
			for k, p := range sel {
				r := rowAt(ridx, p)
				if nulls != nil && c.Nulls.Get(r) {
					nulls[k] = true
					continue
				}
				out.Strs[k] = c.Dict[c.Codes[r]]
			}
		} else {
			for k, p := range sel {
				r := rowAt(ridx, p)
				if nulls != nil && c.Nulls.Get(r) {
					nulls[k] = true
					continue
				}
				out.Strs[k] = c.Strs[r]
			}
		}
	}
	out.Nulls = nulls
	return out
}

// negVec negates a numeric vector in place (freshly built by the child, so
// mutation is safe). NULL slots keep the zero element.
func negVec(l *ExprVec) *ExprVec {
	switch l.Kind {
	case types.KindInt:
		for k := range l.Ints {
			if l.Nulls != nil && l.Nulls[k] {
				continue
			}
			l.Ints[k] = -l.Ints[k]
		}
	case types.KindFloat:
		for k := range l.Floats {
			if l.Nulls != nil && l.Nulls[k] {
				continue
			}
			l.Floats[k] = -l.Floats[k]
		}
	}
	return l // KindNull passes through: -NULL is NULL
}

func mergedNulls(m int, l, r *ExprVec) []bool {
	if l.Nulls == nil && r.Nulls == nil {
		return nil
	}
	nulls := make([]bool, m)
	for k := 0; k < m; k++ {
		nulls[k] = (l.Nulls != nil && l.Nulls[k]) || (r.Nulls != nil && r.Nulls[k])
	}
	return nulls
}

// arithVec applies + - * / with types.Arith's exact semantics: NULL operands
// null the slot before the zero-denominator check, int⊕int stays int with Go
// wraparound, division is always float, mixed operands widen to float64.
func arithVec(op exprOp, l, r *ExprVec) (*ExprVec, error) {
	m := l.n
	if l.Kind == types.KindNull || r.Kind == types.KindNull {
		return &ExprVec{Kind: types.KindNull, n: m}, nil
	}
	if op == opDiv {
		out := &ExprVec{Kind: types.KindFloat, Floats: make([]float64, m), n: m}
		nulls := mergedNulls(m, l, r)
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				continue
			}
			den := r.numFloat(k)
			if den == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			out.Floats[k] = l.numFloat(k) / den
		}
		out.Nulls = nulls
		return out, nil
	}
	if l.Kind == types.KindInt && r.Kind == types.KindInt {
		out := &ExprVec{Kind: types.KindInt, Ints: make([]int64, m), n: m}
		nulls := mergedNulls(m, l, r)
		la, ra := l.Ints, r.Ints
		switch op {
		case opAdd:
			for k := 0; k < m; k++ {
				if nulls != nil && nulls[k] {
					continue
				}
				out.Ints[k] = la[k] + ra[k]
			}
		case opSub:
			for k := 0; k < m; k++ {
				if nulls != nil && nulls[k] {
					continue
				}
				out.Ints[k] = la[k] - ra[k]
			}
		case opMul:
			for k := 0; k < m; k++ {
				if nulls != nil && nulls[k] {
					continue
				}
				out.Ints[k] = la[k] * ra[k]
			}
		}
		out.Nulls = nulls
		return out, nil
	}
	out := &ExprVec{Kind: types.KindFloat, Floats: make([]float64, m), n: m}
	nulls := mergedNulls(m, l, r)
	switch op {
	case opAdd:
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				continue
			}
			out.Floats[k] = l.numFloat(k) + r.numFloat(k)
		}
	case opSub:
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				continue
			}
			out.Floats[k] = l.numFloat(k) - r.numFloat(k)
		}
	case opMul:
		for k := 0; k < m; k++ {
			if nulls != nil && nulls[k] {
				continue
			}
			out.Floats[k] = l.numFloat(k) * r.numFloat(k)
		}
	}
	out.Nulls = nulls
	return out, nil
}

// concatVec implements || : NULL if either slot is NULL, else the two slots
// rendered with Value.String() semantics and joined.
func concatVec(l, r *ExprVec) *ExprVec {
	m := l.n
	if l.Kind == types.KindNull || r.Kind == types.KindNull {
		return &ExprVec{Kind: types.KindNull, n: m}
	}
	out := &ExprVec{Kind: types.KindString, Strs: make([]string, m), n: m}
	nulls := mergedNulls(m, l, r)
	for k := 0; k < m; k++ {
		if nulls != nil && nulls[k] {
			continue
		}
		out.Strs[k] = l.slotStr(k) + r.slotStr(k)
	}
	out.Nulls = nulls
	return out
}
