package plan

import (
	"strconv"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
)

// fuseOrder makes sort order a plan property. Bottom-up, after filter
// pushdown:
//
//   - a Sort over a Window, directly or through a Project, whose keys are
//     the window's partition keys in some order and with any directions
//     followed by exactly its order keys is absorbed into the window
//     (fuseWindowOrder): the window sorts by those keys anyway, and emits
//     its rows in that order instead of in input order;
//   - a Limit over a Sort becomes the Sort's Limit, which the executor runs
//     as a top-k selection, and a Limit over such a window becomes the
//     window's Limit (limitableWindow).
//
// Both rewrites return exactly the rows, in exactly the order, of the plan
// they replace.
func fuseOrder(n Node) Node {
	n, _ = rewrite(n, func(n Node) (Node, error) {
		switch x := n.(type) {
		case *Sort:
			if fuseWindowOrder(x) {
				return x.Input, nil
			}
		case *Limit:
			if s, ok := x.Input.(*Sort); ok && s.Limit < 0 {
				s.Limit, s.Note = x.N, "" // a top-k is no chunked sort
				return s, nil
			}
			if w := limitableWindow(x.Input); w != nil {
				w.Limit = x.N
				return x.Input, nil
			}
		}
		return n, nil
	})
	return n
}

// limitableWindow returns the Window beneath n, directly or through a
// Project, when a LIMIT over n can move into it: the window emits in an
// absorbed ORDER BY's order, and nothing the limit would skip can fail —
// the Project and every window argument read plain columns or constants,
// so evaluating fewer rows leaves out no error.
func limitableWindow(n Node) *Window {
	plain := func(es []sqlast.Expr) bool {
		for _, e := range es {
			switch e.(type) {
			case *sqlast.ColumnRef, *sqlast.Literal:
			default:
				return false
			}
		}
		return true
	}
	if p, ok := n.(*Project); ok {
		if !plain(p.Exprs) {
			return nil
		}
		n = p.Input
	}
	w, ok := n.(*Window)
	if !ok || w.Order == nil || w.Limit >= 0 {
		return nil
	}
	for _, spec := range w.Specs {
		if !plain(spec.Fn.Func.Args) {
			return nil
		}
	}
	return w
}

// fuseWindowOrder absorbs s into the Window beneath it when every spec
// shares one PARTITION BY set P and one ORDER BY list O, and s's keys are
// the columns of P in some order (any directions) followed by exactly O
// (O's directions); every key must be a plain input column. The window's
// result is then defined as the old window's rows stable-sorted by s's
// keys, which is what its one stable sort by those keys yields: partitions
// are contiguous under any order of P, and within one the rows are ordered
// by O, ties in input order, as before.
func fuseWindowOrder(s *Sort) bool {
	node := s.Input
	var proj *Project
	if p, ok := node.(*Project); ok {
		proj, node = p, p.Input
	}
	w, ok := node.(*Window)
	if !ok || w.Order != nil || len(w.Specs) == 0 {
		return false
	}
	in := w.Input.Schema()
	width := len(in.Cols)
	// Identify every key by its input column ordinal.
	colID := func(env *eval.BoundSchema, e sqlast.Expr) (int, bool) {
		ord, ok := eval.PlainOrdinal(env, e)
		return ord, ok && ord < width
	}
	first := w.Specs[0].Fn
	part := map[int]sqlast.Expr{} // P: ordinal → the spec's expression
	for _, e := range first.PartitionBy {
		ord, ok := colID(in, e)
		if !ok {
			return false
		}
		part[ord] = e
	}
	order := make([]int, len(first.OrderBy))
	for i, o := range first.OrderBy {
		ord, ok := colID(in, o.Expr)
		if !ok {
			return false
		}
		order[i] = ord
	}
	for _, spec := range w.Specs[1:] {
		fn := spec.Fn
		ps := map[int]bool{}
		for _, e := range fn.PartitionBy {
			ord, ok := colID(in, e)
			if !ok || part[ord] == nil {
				return false
			}
			ps[ord] = true
		}
		if len(ps) != len(part) || len(fn.OrderBy) != len(order) {
			return false
		}
		for i, o := range fn.OrderBy {
			if ord, ok := colID(in, o.Expr); !ok || ord != order[i] || o.Desc != first.OrderBy[i].Desc {
				return false
			}
		}
	}
	np := len(part)
	if len(s.Items) != np+len(order) {
		return false
	}
	fused := make([]sqlast.OrderItem, len(s.Items))
	seen := map[int]bool{}
	for i, it := range s.Items {
		e := it.Expr
		if proj != nil {
			j, ok := eval.PlainOrdinal(proj.Schema(), e)
			if !ok {
				return false
			}
			e = proj.Exprs[j]
		}
		ord, ok := colID(w.Schema(), e)
		if !ok {
			return false
		}
		if i < np {
			if part[ord] == nil || seen[ord] {
				return false
			}
			seen[ord] = true
			fused[i] = sqlast.OrderItem{Expr: part[ord], Desc: it.Desc}
			continue
		}
		o := first.OrderBy[i-np]
		if ord != order[i-np] || it.Desc != o.Desc {
			return false
		}
		fused[i] = o
	}
	w.Order = fused
	return true
}

// orderString renders order items as EXPLAIN shows them.
func orderString(items []sqlast.OrderItem) string {
	s := ""
	for i, it := range items {
		if i > 0 {
			s += ", "
		}
		s += it.Expr.String()
		if it.Desc {
			s += " DESC"
		}
	}
	return s
}

// limitString renders a Sort's fused limit for EXPLAIN ("" when none).
func limitString(s *Sort) string {
	if s.Limit < 0 {
		return ""
	}
	return " limit=" + strconv.Itoa(s.Limit) + " (top-k)"
}
