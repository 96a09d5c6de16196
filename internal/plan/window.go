package plan

import (
	"fmt"
	"strconv"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// Window computes window functions over its input: the output schema is the
// input's columns followed by one synthetic column per spec. Window
// functions are the ANSI OLAP amendment ([18] in the paper) and double as
// the ROLAP baseline for running/prior-period calculations that the
// spreadsheet clause subsumes.
type Window struct {
	Input Node
	Specs []WindowSpec
	// Compiled maps each spec's argument / PARTITION BY / ORDER BY
	// expression to its compiled form.
	Compiled map[sqlast.Expr]eval.CompiledExpr
	schema   *eval.BoundSchema
}

// WindowSpec is one computed window column.
type WindowSpec struct {
	Name string
	Fn   *sqlast.WindowFunc
}

func (n *Window) Schema() *eval.BoundSchema { return n.schema }
func (n *Window) Children() []Node          { return []Node{n.Input} }

// rankingFuncs are the non-aggregate window functions supported.
var rankingFuncs = map[string]int{ // name -> max arity
	"row_number": 0, "rank": 0, "dense_rank": 0,
	"lag": 3, "lead": 3, "first_value": 1, "last_value": 1,
}

// windowRewriter extracts WindowFunc expressions, replacing them with
// references to the Window node's synthetic output columns.
type windowRewriter struct {
	specs []WindowSpec
	seen  map[string]string
}

func newWindowRewriter() *windowRewriter {
	return &windowRewriter{seen: map[string]string{}}
}

func (wr *windowRewriter) rewrite(e sqlast.Expr) sqlast.Expr {
	return sqlast.Transform(e, func(n sqlast.Expr) sqlast.Expr {
		w, ok := n.(*sqlast.WindowFunc)
		if !ok {
			return n
		}
		key := w.String()
		if name, dup := wr.seen[key]; dup {
			return &sqlast.ColumnRef{Name: name}
		}
		name := "$win" + strconv.Itoa(len(wr.specs))
		wr.seen[key] = name
		wr.specs = append(wr.specs, WindowSpec{Name: name, Fn: w})
		return &sqlast.ColumnRef{Name: name}
	})
}

// newWindow validates the specs against the input schema.
func newWindow(input Node, specs []WindowSpec) (*Window, error) {
	for _, spec := range specs {
		fn := spec.Fn.Func
		maxArity, isRanking := rankingFuncs[fn.Name]
		switch {
		case aggs.IsAggregate(fn.Name):
			if fn.Star && fn.Name != "count" {
				return nil, fmt.Errorf("%s(*) is not supported", fn.Name)
			}
			if !fn.Star && len(fn.Args) != aggs.NumArgs(fn.Name) {
				return nil, fmt.Errorf("%s() takes %d argument(s)", fn.Name, aggs.NumArgs(fn.Name))
			}
		case isRanking:
			if fn.Star {
				return nil, fmt.Errorf("%s(*) is not valid", fn.Name)
			}
			if len(fn.Args) > maxArity {
				return nil, fmt.Errorf("%s() takes at most %d argument(s)", fn.Name, maxArity)
			}
			minArity := 0
			if fn.Name == "lag" || fn.Name == "lead" || fn.Name == "first_value" || fn.Name == "last_value" {
				minArity = 1
			}
			if len(fn.Args) < minArity {
				return nil, fmt.Errorf("%s() requires an argument", fn.Name)
			}
			if len(spec.Fn.OrderBy) == 0 && fn.Name != "first_value" && fn.Name != "last_value" {
				return nil, fmt.Errorf("%s() requires ORDER BY in its OVER clause", fn.Name)
			}
			if spec.Fn.Frame != nil && (fn.Name == "lag" || fn.Name == "lead" ||
				fn.Name == "row_number" || fn.Name == "rank" || fn.Name == "dense_rank") {
				return nil, fmt.Errorf("%s() does not accept a frame", fn.Name)
			}
		default:
			return nil, fmt.Errorf("%s() is not a window function", fn.Name)
		}
		check := func(e sqlast.Expr, what string) error {
			if e == nil {
				return nil
			}
			if err := checkResolvable(e, input.Schema()); err != nil {
				return fmt.Errorf("window %s: %v", what, err)
			}
			return nil
		}
		for _, a := range fn.Args {
			if err := check(a, "argument"); err != nil {
				return nil, err
			}
		}
		for _, p := range spec.Fn.PartitionBy {
			if err := check(p, "PARTITION BY"); err != nil {
				return nil, err
			}
		}
		for _, o := range spec.Fn.OrderBy {
			if err := check(o.Expr, "ORDER BY"); err != nil {
				return nil, err
			}
		}
	}
	cols := append([]eval.BoundCol{}, input.Schema().Cols...)
	for _, spec := range specs {
		cols = append(cols, eval.BoundCol{Name: spec.Name})
	}
	return &Window{Input: input, Specs: specs, schema: eval.NewBoundSchema(cols)}, nil
}

// rejectWindow errors when e contains a window function (WHERE, GROUP BY,
// HAVING and spreadsheet formulas evaluate before windows).
func rejectWindow(e sqlast.Expr, where string) error {
	var err error
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if _, ok := n.(*sqlast.WindowFunc); ok {
			err = fmt.Errorf("window functions are not allowed in %s", where)
			return false
		}
		return true
	})
	return err
}
