package exec

import (
	"errors"
	"fmt"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/plan"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// runner implements eval.SubqueryRunner and plan.RefExecutor over the
// owning executor. Uncorrelated subqueries are detected dynamically: the
// first execution runs without the outer binding; if it succeeds the result
// is cached for the rest of the statement, otherwise (unknown column) the
// subquery is marked correlated and re-run per row.
type runner struct {
	ex *Executor
}

func (r *runner) result(sub *sqlast.SelectStmt, outer *eval.Binding) (*Result, error) {
	ex := r.ex
	ex.mu.Lock()
	p := ex.subPlans[sub]
	correl, known := ex.subCorrel[sub]
	cached := ex.subCache[sub]
	ex.mu.Unlock()

	if p == nil {
		var err error
		p, err = plan.Build(ex.Cat, sub, ex.planOpts())
		if err != nil {
			return nil, err
		}
		ex.mu.Lock()
		ex.subPlans[sub] = p
		ex.mu.Unlock()
	}
	if known && !correl && cached != nil {
		return cached, nil
	}
	if !known {
		res, err := ex.Execute(p, nil)
		if err == nil {
			ex.mu.Lock()
			ex.subCorrel[sub] = false
			ex.subCache[sub] = res
			ex.mu.Unlock()
			return res, nil
		}
		if !errors.Is(err, eval.ErrUnknownColumn) {
			return nil, err
		}
		ex.mu.Lock()
		ex.subCorrel[sub] = true
		ex.mu.Unlock()
	}
	return ex.Execute(p, outer)
}

// Scalar implements eval.SubqueryRunner.
func (r *runner) Scalar(sub *sqlast.SelectStmt, outer *eval.Binding) (types.Value, error) {
	res, err := r.result(sub, outer)
	if err != nil {
		return types.Null, err
	}
	if len(res.Rows) == 0 {
		return types.Null, nil
	}
	if len(res.Rows) > 1 {
		return types.Null, fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))
	}
	if len(res.Rows[0]) != 1 {
		return types.Null, fmt.Errorf("scalar subquery returned %d columns", len(res.Rows[0]))
	}
	return res.Rows[0][0], nil
}

// Column implements eval.SubqueryRunner.
func (r *runner) Column(sub *sqlast.SelectStmt, outer *eval.Binding) ([]types.Value, error) {
	res, err := r.result(sub, outer)
	if err != nil {
		return nil, err
	}
	if len(res.Schema.Cols) < 1 {
		return nil, fmt.Errorf("subquery returns no columns")
	}
	out := make([]types.Value, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0]
	}
	return out, nil
}

// Exists implements eval.SubqueryRunner.
func (r *runner) Exists(sub *sqlast.SelectStmt, outer *eval.Binding) (bool, error) {
	res, err := r.result(sub, outer)
	if err != nil {
		return false, err
	}
	return len(res.Rows) > 0, nil
}

// valSet is a hashed membership index over a subquery's first column.
type valSet struct {
	set     map[string]bool
	sawNull bool
}

func newValSet(rows []types.Row) *valSet {
	vs := &valSet{set: make(map[string]bool, len(rows))}
	for _, row := range rows {
		if row[0].IsNull() {
			vs.sawNull = true
			continue
		}
		vs.set[types.Key(row[0])] = true
	}
	return vs
}

func (vs *valSet) contains(v types.Value) types.Value {
	if v.IsNull() {
		return types.Null
	}
	if vs.set[types.Key(v)] {
		return types.NewBool(true)
	}
	if vs.sawNull {
		return types.Null
	}
	return types.NewBool(false)
}

// In implements eval.SubqueryRunner. The access path models the join-method
// choice of the paper's Fig. 2: with ForceJoin == nested-loop the
// materialized list is rescanned per probe (the optimizer's bad plan for
// low selectivities); otherwise a hash set is built once per statement.
func (r *runner) In(sub *sqlast.SelectStmt, outer *eval.Binding, v types.Value) (types.Value, error) {
	ex := r.ex
	nestedLoop := ex.planOpts().Ablate.ForceJoin == plan.JoinNestedLoop
	if nestedLoop {
		vals, err := r.Column(sub, outer)
		if err != nil {
			return types.Null, err
		}
		return eval.InMembership(v, vals), nil
	}
	ex.mu.Lock()
	vs, cached := ex.subSets[sub]
	correl := ex.subCorrel[sub]
	ex.mu.Unlock()
	if cached && !correl {
		return vs.contains(v), nil
	}
	res, err := r.result(sub, outer)
	if err != nil {
		return types.Null, err
	}
	vs = newValSet(res.Rows)
	ex.mu.Lock()
	if !ex.subCorrel[sub] {
		ex.subSets[sub] = vs
	}
	ex.mu.Unlock()
	return vs.contains(v), nil
}

// Rows implements plan.RefExecutor (plan-time execution of reference
// queries for extended pushing and formula unfolding).
func (ex *Executor) Rows(stmt *sqlast.SelectStmt) (*eval.BoundSchema, []types.Row, error) {
	r := &runner{ex: ex}
	res, err := r.result(stmt, nil)
	if err != nil {
		return nil, nil, err
	}
	return res.Schema, res.Rows, nil
}

// planOpts returns the plan options used for nested statements.
func (ex *Executor) planOpts() *plan.Options {
	if ex.Opts.PlanOpts != nil {
		return ex.Opts.PlanOpts
	}
	return &plan.Options{Exec: ex}
}
