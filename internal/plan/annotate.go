package plan

import (
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// Fallback reasons for EXPLAIN's vectorized= annotation. Recorded even when
// vectorized execution is disabled, so ablation runs show why (or that)
// every node is on the row path without a debugger.
const (
	vecYes             = "yes"
	vecNoDisabled      = "no(disabled)"
	vecNoUnsupported   = "no(unsupported-expr)"
	vecNoNonColumnKeys = "no(non-column-keys)"
	vecNoNestedLoop    = "no(nested-loop)"
)

// annotator is the one walk over an optimized plan. Per node it attaches
// what execution and EXPLAIN need and changes no plan shape:
//
//   - the closure-compiled form of every per-row expression; the executor's
//     row loops evaluate nothing else. Compilation cannot fail (see
//     eval.Compile): what is wrong with an expression is reported when a row
//     is evaluated. Expressions compile against the schema they are
//     evaluated under at run time: a Scan/CTERef filter against the node's
//     own (aliased) schema, a Filter/Project/GroupBy/Sort/Window expression
//     against the input schema, join keys against their side's schema, and
//     a join residual against the combined output schema.
//   - vectorized selection and compute kernels at the filter, projection
//     and aggregation sites, with the node's vectorized= note. Best-effort:
//     an expression without a kernel form leaves the slot invalid and the
//     executor keeps the per-row closure path. Kernel compilation is a pure
//     function of the expression and schema, so EXPLAIN's annotations stay
//     machine-independent; the executor may still fall back at run time
//     when a column's representation (mixed-kind boxed values, string
//     operands under arithmetic) has no typed vector. With
//     Engine.DisableVectorizedExec no kernel is compiled and the note says
//     no(disabled), so ablation runs show that every node is on the row path.
type annotator struct {
	opts    *Options
	visited map[Node]bool
}

func (a *annotator) walk(n Node) {
	if n == nil || a.visited[n] {
		return
	}
	a.visited[n] = true
	vec := !a.opts.Engine.DisableVectorizedExec
	switch x := n.(type) {
	case *Scan:
		x.FilterC = eval.Compile(x.Schema(), x.Filter)
		if x.Filter != nil {
			x.FilterK, x.VecNote = a.selKernel(x.Schema(), x.Filter)
		}
	case *CTERef:
		x.FilterC = eval.Compile(x.Schema(), x.Filter)
		a.walk(x.Def.Plan)
	case *Filter:
		x.CondC = eval.Compile(x.Input.Schema(), x.Cond)
		x.CondK, x.VecNote = a.selKernel(x.Input.Schema(), x.Cond)
	case *Project:
		env := x.Input.Schema()
		x.ExprsC = eval.CompileMany(env, x.Exprs)
		if !vec {
			x.VecNote = vecNoDisabled
			break
		}
		var ok bool
		x.ExprsK, ok = exprKernels(env, x.Exprs)
		x.VecNote = kernelNote(ok)
	case *Join:
		x.LeftKeysC = eval.CompileMany(x.L.Schema(), x.LeftKeys)
		x.RightKeysC = eval.CompileMany(x.R.Schema(), x.RightKeys)
		x.ResidualC = eval.Compile(x.Schema(), x.Residual)
		switch {
		case !vec:
			x.VecNote = vecNoDisabled
		case x.Method == JoinHash || (x.Method == JoinAuto && len(x.LeftKeys) > 0):
			x.VecNote = vecYes
		default:
			x.VecNote = vecNoNestedLoop
		}
	case *GroupBy:
		env := x.Input.Schema()
		x.KeysC = eval.CompileMany(env, x.Keys)
		x.AggArgsC = make([][]eval.CompiledExpr, len(x.Aggs))
		for i, spec := range x.Aggs {
			x.AggArgsC[i] = eval.CompileMany(env, spec.Call.Args)
		}
		if !vec {
			x.VecNote = vecNoDisabled
			break
		}
		x.ArgK = make([][]eval.ExprKernel, len(x.Aggs))
		argsOK := true
		for i, spec := range x.Aggs {
			if spec.Call.Star {
				continue
			}
			var ok bool
			x.ArgK[i], ok = exprKernels(env, spec.Call.Args)
			argsOK = argsOK && ok
		}
		keysOK := true
		for _, k := range x.Keys {
			if _, isCol := eval.PlainOrdinal(env, k); !isCol {
				keysOK = false
			}
		}
		switch {
		case !keysOK:
			x.VecNote = vecNoNonColumnKeys
		case !argsOK:
			x.VecNote = vecNoUnsupported
		default:
			x.VecNote = vecYes
		}
	case *Sort:
		items := make([]sqlast.Expr, len(x.Items))
		for i, it := range x.Items {
			items[i] = it.Expr
		}
		x.ItemsC = eval.CompileMany(x.Input.Schema(), items)
	case *Window:
		x.Compiled = map[sqlast.Expr]eval.CompiledExpr{}
		env := x.Input.Schema()
		add := func(e sqlast.Expr) {
			if e != nil {
				x.Compiled[e] = eval.Compile(env, e)
			}
		}
		for _, spec := range x.Specs {
			for _, arg := range spec.Fn.Func.Args {
				add(arg)
			}
			for _, p := range spec.Fn.PartitionBy {
				add(p)
			}
			for _, o := range spec.Fn.OrderBy {
				add(o.Expr)
			}
		}
	case *Spreadsheet:
		// Per-rule batch-kernel decisions, compiled by the core engine (it
		// owns the kernel-domain contract); EXPLAIN prints one note per
		// rule line. A disabled run still records why each rule would or
		// would not vectorize.
		x.RuleVecNotes = x.Model.RuleVecNotes(!a.opts.Engine.RulesVectorized())
	}
	for _, ch := range n.Children() {
		a.walk(ch)
	}
}

// selKernel compiles a predicate's selection kernel and its vectorized= note.
func (a *annotator) selKernel(env *eval.BoundSchema, e sqlast.Expr) (eval.SelKernel, string) {
	if a.opts.Engine.DisableVectorizedExec {
		return eval.SelKernel{}, vecNoDisabled
	}
	k := eval.CompileSelKernel(env, e)
	return k, kernelNote(k.Valid())
}

// exprKernels compiles one compute kernel per expression; ok reports whether
// every one has a kernel form.
func exprKernels(env *eval.BoundSchema, es []sqlast.Expr) (ks []eval.ExprKernel, ok bool) {
	ks = make([]eval.ExprKernel, len(es))
	ok = true
	for i, e := range es {
		ks[i] = eval.CompileExprKernel(env, e)
		ok = ok && ks[i].Valid()
	}
	return ks, ok
}

func kernelNote(ok bool) string {
	if ok {
		return vecYes
	}
	return vecNoUnsupported
}
