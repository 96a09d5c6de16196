// Package eval evaluates expressions: Compile lowers an expression tree into
// a closure chain (compile.go) and the kernel compilers lower it into
// columnar batch kernels (vector.go, exprvec.go). It is shared by the
// relational executor and the spreadsheet engine: spreadsheet-only constructs
// (cell references, cv(), previous(), IS PRESENT) and subqueries are resolved
// through hooks on the Context, so the evaluator itself stays independent of
// both layers.
package eval

import (
	"errors"
	"fmt"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// ErrUnknownColumn is the sentinel wrapped by every unresolved-column
// failure (here and in the planner's resolution check). The executor's
// dynamic correlated-subquery detection tests for it with errors.Is, so
// wrapped errors cannot be misclassified the way substring matching could.
var ErrUnknownColumn = errors.New("unknown column")

// Context carries everything an expression needs at evaluation time.
type Context struct {
	// Binding resolves column references; may be nil for constant folding.
	Binding *Binding
	// Nav selects NULL arithmetic semantics (the IGNORE NAV option).
	Nav types.NavMode

	// Spreadsheet hooks; nil outside formula evaluation.
	Cell     func(*sqlast.CellRef) (types.Value, error)
	CellAgg  func(*sqlast.CellAgg) (types.Value, error)
	CurrentV func(dim string) (types.Value, error)
	Previous func(*sqlast.CellRef) (types.Value, error)
	Present  func(*sqlast.CellRef) (bool, error)

	// Subquery executes nested queries; nil makes subqueries an error.
	Subquery SubqueryRunner
}

// Clone returns a copy of c with its own Binding, so a parallel worker can
// bind rows independently of other workers. The hooks and subquery runner
// are shared, not copied — implementations handed to concurrent workers
// must be safe for concurrent use (the relational executor's runner is
// mutex-guarded; the spreadsheet hooks are per-frame and never shared).
// The outer (parent) binding chain is shared too: workers only ever read
// it, never rebind it.
func (c *Context) Clone() *Context {
	nc := *c
	if c.Binding != nil {
		b := *c.Binding
		b.Row = nil
		nc.Binding = &b
	}
	return &nc
}

// SubqueryRunner executes subqueries with access to the outer binding for
// correlation.
type SubqueryRunner interface {
	// Scalar returns the single value of a one-column, at-most-one-row query.
	Scalar(sub *sqlast.SelectStmt, outer *Binding) (types.Value, error)
	// Column returns the first column of every result row.
	Column(sub *sqlast.SelectStmt, outer *Binding) ([]types.Value, error)
	// Exists reports whether the query returns at least one row.
	Exists(sub *sqlast.SelectStmt, outer *Binding) (bool, error)
	// In evaluates "v IN (subquery)" under three-valued logic. Implementors
	// choose the access path (hash set vs. rescans) — the choice the
	// paper's Fig. 2 shows the optimizer getting wrong for ref-subquery
	// pushing.
	In(sub *sqlast.SelectStmt, outer *Binding, v types.Value) (types.Value, error)
}

// BoundCol names one column visible to expressions, with its table alias.
type BoundCol struct {
	Table string
	Name  string
}

// BoundSchema indexes visible columns for resolution.
type BoundSchema struct {
	Cols   []BoundCol
	byName map[string][]int
	byQual map[string]int
}

// NewBoundSchema builds the resolution index.
func NewBoundSchema(cols []BoundCol) *BoundSchema {
	bs := &BoundSchema{
		Cols:   cols,
		byName: make(map[string][]int),
		byQual: make(map[string]int),
	}
	for i, c := range cols {
		bs.byName[c.Name] = append(bs.byName[c.Name], i)
		if c.Table != "" {
			q := c.Table + "." + c.Name
			if _, dup := bs.byQual[q]; !dup {
				bs.byQual[q] = i
			}
		}
	}
	return bs
}

// FromSchema adapts a plain schema (no table qualifiers).
func FromSchema(s *types.Schema) *BoundSchema {
	cols := make([]BoundCol, s.Len())
	for i, c := range s.Cols {
		cols[i] = BoundCol{Name: c.Name}
	}
	return NewBoundSchema(cols)
}

// Qualify returns a copy of bs with every column's table alias replaced.
func (bs *BoundSchema) Qualify(alias string) *BoundSchema {
	cols := make([]BoundCol, len(bs.Cols))
	for i, c := range bs.Cols {
		cols[i] = BoundCol{Table: alias, Name: c.Name}
	}
	return NewBoundSchema(cols)
}

// Resolve maps a (table, name) reference to a column ordinal.
// found=false means the name is unknown here (the caller may then try an
// outer binding); err is non-nil for genuinely ambiguous references.
func (bs *BoundSchema) Resolve(table, name string) (idx int, found bool, err error) {
	if table != "" {
		i, ok := bs.byQual[table+"."+name]
		if !ok {
			return -1, false, nil
		}
		return i, true, nil
	}
	ids := bs.byName[name]
	switch len(ids) {
	case 0:
		return -1, false, nil
	case 1:
		return ids[0], true, nil
	}
	// Identically-qualified duplicates (e.g. natural self-join of the same
	// column name) are ambiguous.
	return -1, false, fmt.Errorf("ambiguous column reference %q", name)
}

// Binding is a row bound to a schema, with an optional outer binding for
// correlated subqueries.
type Binding struct {
	BS     *BoundSchema
	Row    types.Row
	Parent *Binding
}

// Lookup resolves a column reference through the binding chain.
func (b *Binding) Lookup(table, name string) (types.Value, error) {
	for cur := b; cur != nil; cur = cur.Parent {
		idx, ok, err := cur.BS.Resolve(table, name)
		if err != nil {
			return types.Null, err
		}
		if ok {
			return cur.Row[idx], nil
		}
	}
	if table != "" {
		return types.Null, fmt.Errorf("%w %q.%q", ErrUnknownColumn, table, name)
	}
	return types.Null, fmt.Errorf("%w %q", ErrUnknownColumn, name)
}

// CompareSQL applies a comparison operator under three-valued logic.
func CompareSQL(op string, l, r types.Value) types.Value {
	if l.IsNull() || r.IsNull() {
		return types.Null
	}
	if op == "=" || op == "<>" {
		eq := types.Equal(l, r)
		return types.NewBool(eq == (op == "="))
	}
	// Ordered comparison across incompatible kinds is false rather than an
	// error (dimension predicates routinely mix domains during pushdown).
	if l.IsNumeric() != r.IsNumeric() {
		return types.NewBool(false)
	}
	c := types.Compare(l, r)
	switch op {
	case "<":
		return types.NewBool(c < 0)
	case "<=":
		return types.NewBool(c <= 0)
	case ">":
		return types.NewBool(c > 0)
	case ">=":
		return types.NewBool(c >= 0)
	}
	return types.Null
}

func and3(a, b types.Value) types.Value {
	if (!a.IsNull() && !a.Bool()) || (!b.IsNull() && !b.Bool()) {
		return types.NewBool(false)
	}
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	return types.NewBool(true)
}

func not3(v types.Value) types.Value {
	if v.IsNull() {
		return types.Null
	}
	return types.NewBool(!v.Bool())
}

// InMembership implements the standard three-valued IN semantics over a
// materialized value list; runner implementations use it for the
// nested-loop (rescan) strategy.
func InMembership(v types.Value, vals []types.Value) types.Value {
	if v.IsNull() {
		return types.Null
	}
	sawNull := false
	for _, iv := range vals {
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if types.Equal(v, iv) {
			return types.NewBool(true)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(false)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pat string) bool {
	// Iterative two-pointer match with backtracking on '%'.
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]):
			si++
			pi++
		case pi < len(pat) && pat[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}
