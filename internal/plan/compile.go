package plan

import (
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// compilePlan attaches the closure-compiled form of every per-row expression
// to the plan after optimization; the executor's row loops evaluate nothing
// else. Compilation cannot fail (see eval.Compile): what is wrong with an
// expression is reported when a row is evaluated.
//
// Expressions compile against the schema they are evaluated under at run
// time: a Scan/CTERef filter against the node's own (aliased) schema, a
// Filter/Project/GroupBy/Sort/Window expression against the input schema,
// join keys against their side's schema, and a join residual against the
// combined output schema.
func compilePlan(n Node, visited map[Node]bool) {
	if n == nil || visited[n] {
		return
	}
	visited[n] = true
	switch x := n.(type) {
	case *Scan:
		x.FilterC = eval.Compile(x.Schema(), x.Filter)
	case *CTERef:
		x.FilterC = eval.Compile(x.Schema(), x.Filter)
		compilePlan(x.Def.Plan, visited)
	case *Filter:
		x.CondC = eval.Compile(x.Input.Schema(), x.Cond)
	case *Project:
		x.ExprsC = eval.CompileMany(x.Input.Schema(), x.Exprs)
	case *Join:
		x.LeftKeysC = eval.CompileMany(x.L.Schema(), x.LeftKeys)
		x.RightKeysC = eval.CompileMany(x.R.Schema(), x.RightKeys)
		x.ResidualC = eval.Compile(x.Schema(), x.Residual)
	case *GroupBy:
		x.KeysC = eval.CompileMany(x.Input.Schema(), x.Keys)
		x.AggArgsC = make([][]eval.CompiledExpr, len(x.Aggs))
		for i, spec := range x.Aggs {
			x.AggArgsC[i] = eval.CompileMany(x.Input.Schema(), spec.Call.Args)
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
			for _, a := range spec.Fn.Func.Args {
				add(a)
			}
			for _, p := range spec.Fn.PartitionBy {
				add(p)
			}
			for _, o := range spec.Fn.OrderBy {
				add(o.Expr)
			}
		}
	}
	for _, ch := range n.Children() {
		compilePlan(ch, visited)
	}
}

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

// vectorizePlan attaches vectorized selection and compute kernels to the
// plan's filter, projection and aggregation sites, and records each node's
// vectorized= note. Best-effort: expressions without a kernel form leave the
// slot invalid and the executor keeps the per-row closure path. Kernel
// compilation is a pure function of the expression and
// schema, so EXPLAIN's annotations stay machine-independent; the executor
// may still fall back at run time when a column's representation (mixed-kind
// boxed values, string operands under arithmetic) has no typed vector.
func vectorizePlan(n Node, visited map[Node]bool, disabled, rulesDisabled bool) {
	if n == nil || visited[n] {
		return
	}
	visited[n] = true
	switch x := n.(type) {
	case *Scan:
		if x.Filter != nil {
			if disabled {
				x.VecNote = vecNoDisabled
			} else {
				x.FilterK = eval.CompileSelKernel(x.Schema(), x.Filter)
				x.VecNote = kernelNote(x.FilterK.Valid())
			}
		}
	case *CTERef:
		vectorizePlan(x.Def.Plan, visited, disabled, rulesDisabled)
	case *Filter:
		if disabled {
			x.VecNote = vecNoDisabled
		} else {
			x.CondK = eval.CompileSelKernel(x.Input.Schema(), x.Cond)
			x.VecNote = kernelNote(x.CondK.Valid())
		}
	case *Project:
		if disabled {
			x.VecNote = vecNoDisabled
			break
		}
		env := x.Input.Schema()
		x.ExprsK = make([]eval.ExprKernel, len(x.Exprs))
		ok := true
		for i, e := range x.Exprs {
			x.ExprsK[i] = eval.CompileExprKernel(env, e)
			if !x.ExprsK[i].Valid() {
				ok = false
			}
		}
		x.VecNote = kernelNote(ok)
	case *GroupBy:
		if disabled {
			x.VecNote = vecNoDisabled
			break
		}
		env := x.Input.Schema()
		x.ArgK = make([][]eval.ExprKernel, len(x.Aggs))
		argsOK := true
		for i, spec := range x.Aggs {
			if spec.Call.Star {
				continue
			}
			x.ArgK[i] = make([]eval.ExprKernel, len(spec.Call.Args))
			for j, a := range spec.Call.Args {
				x.ArgK[i][j] = eval.CompileExprKernel(env, a)
				if !x.ArgK[i][j].Valid() {
					argsOK = false
				}
			}
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
	case *Join:
		switch {
		case disabled:
			x.VecNote = vecNoDisabled
		case x.Method == JoinHash || (x.Method == JoinAuto && len(x.LeftKeys) > 0):
			x.VecNote = vecYes
		default:
			x.VecNote = vecNoNestedLoop
		}
	case *Spreadsheet:
		// Per-rule batch-kernel decisions, compiled by the core engine (it
		// owns the kernel-domain contract); EXPLAIN prints one note per
		// rule line. Like the flag above, a disabled run still records why
		// each rule would or would not vectorize.
		x.RuleVecNotes = x.Model.RuleVecNotes(rulesDisabled)
	}
	for _, ch := range n.Children() {
		vectorizePlan(ch, visited, disabled, rulesDisabled)
	}
}

func kernelNote(ok bool) string {
	if ok {
		return vecYes
	}
	return vecNoUnsupported
}
