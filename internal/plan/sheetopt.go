package plan

import (
	"fmt"

	"sqlsheet/internal/core"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// optimizeSheets walks the plan looking for Filter → [Project] →
// Spreadsheet chains and applies §4's optimizations: formula pruning,
// left-side rewriting, and predicate pushing (PBY columns, independent
// dimensions, bounding rectangles, and the reference-spreadsheet
// transforms).
func optimizeSheets(n Node, opts *Options) (Node, error) {
	// Bottom-up, so nested spreadsheets optimize first.
	return rewrite(n, func(n Node) (Node, error) {
		if f, ok := n.(*Filter); ok {
			return rewriteSheetFilter(f, opts)
		}
		return n, nil
	})
}

// sheetChain matches Filter → [Projects/aliases] → Spreadsheet and exposes
// the outer-name → working-name column mapping.
type sheetChain struct {
	sheet *Spreadsheet
	// nameMap maps the filter's visible column names to working columns.
	nameMap map[string]string
	// usedMeasures collects the measure ordinals visible above.
	usedMeasures map[int]bool
}

func matchSheetChain(f *Filter) *sheetChain {
	node := f.Input
	// Identity mapping through the filter's input schema.
	nameMap := map[string]string{}
	for _, c := range f.Input.Schema().Cols {
		nameMap[c.Name] = c.Name
	}
	var projects []*Project
	for {
		switch x := node.(type) {
		case *Project:
			projects = append(projects, x)
			node = x.Input
			continue
		case *Alias:
			node = x.Input
			continue
		case *Spreadsheet:
			sc := &sheetChain{sheet: x, usedMeasures: map[int]bool{}}
			// Compose mappings outer → ... → working columns.
			m := x.Model
			// Start from the outermost visible names and trace each
			// through the project stack.
			final := map[string]string{}
			usedWorking := map[string]bool{}
			for outer := range nameMap {
				name := outer
				ok := true
				for _, p := range projects {
					idx, found, err := p.Schema().Resolve("", name)
					if err != nil || !found {
						ok = false
						break
					}
					cref, isCol := p.Exprs[idx].(*sqlast.ColumnRef)
					if !isCol {
						ok = false
						break
					}
					name = cref.Name
				}
				if ok {
					if _, found, _ := x.Schema().Resolve("", name); found {
						final[outer] = name
					}
				}
			}
			// Every working column any project references counts as used.
			for _, p := range projects {
				for _, e := range p.Exprs {
					for _, c := range sqlast.ColumnRefs(e) {
						usedWorking[c.Name] = true
					}
				}
			}
			if len(projects) == 0 {
				for _, c := range x.Schema().Cols {
					usedWorking[c.Name] = true
				}
			} else {
				// Only the outermost projection defines visibility; trace
				// it fully: if it fails to stay within column refs we fall
				// back to "all used".
				_ = usedWorking
			}
			for i, mn := range m.MeasureNames() {
				if usedWorking[mn] {
					sc.usedMeasures[m.NPby+m.NDby+i] = true
				}
			}
			sc.nameMap = final
			return sc
		default:
			return nil
		}
	}
}

// rewriteSheetFilter applies prune/rewrite/push for one matched chain.
func rewriteSheetFilter(f *Filter, opts *Options) (Node, error) {
	chain := matchSheetChain(f)
	if chain == nil {
		return f, nil
	}
	m := chain.sheet.Model
	sheet := chain.sheet

	// Translate filter conjuncts into working-column terms.
	type tconj struct {
		orig       sqlast.Expr
		translated sqlast.Expr // nil if not translatable
	}
	var tcs []tconj
	for _, conj := range conjuncts(f.Cond) {
		tr, ok := translateConj(conj, chain.nameMap)
		if !ok {
			tcs = append(tcs, tconj{orig: conj})
			continue
		}
		tcs = append(tcs, tconj{orig: conj, translated: tr})
	}

	// Outer dimension bounds for pruning.
	dimBounds := make(core.Rect, m.NDby)
	for d := range dimBounds {
		dimBounds[d] = core.AllBound()
	}
	for _, tc := range tcs {
		if tc.translated == nil {
			continue
		}
		for d, dim := range m.DimNames() {
			if singleColumnIs(tc.translated, dim) {
				dimBounds[d] = dimBounds[d].Intersect(m.PredBound(tc.translated, dim))
			}
		}
	}

	// Formula pruning and rewriting.
	if !opts.Ablate.DisableSheetPrune {
		outer := core.OuterInfo{DimBounds: dimBounds}
		if len(chain.usedMeasures) > 0 {
			outer.UsedMeasures = chain.usedMeasures
		}
		pruned, rewritten := m.Prune(outer)
		for _, p := range pruned {
			sheet.Notes = append(sheet.Notes, "pruned formula "+p)
		}
		for _, r := range rewritten {
			sheet.Notes = append(sheet.Notes, "rewrote formula "+r)
		}
	}

	if opts.Ablate.DisableSheetPush {
		return f, nil
	}

	pby := map[string]bool{}
	for _, n := range m.PbyNames() {
		pby[n] = true
	}
	independent := m.IndependentDims()
	funcInd := m.FunctionallyIndependentDims()
	sheetRect := m.SheetRect()
	hasUpsert := m.HasUpsert()

	var pushed sqlast.Expr
	var keep sqlast.Expr
	for _, tc := range tcs {
		if tc.translated == nil {
			keep = andExpr(keep, tc.orig)
			continue
		}
		refs := sqlast.ColumnRefs(tc.translated)
		onlyPby := true
		for _, c := range refs {
			if !pby[c.Name] {
				onlyPby = false
			}
		}
		if onlyPby && len(refs) > 0 {
			// PBY predicates filter whole partitions: push and drop the
			// outer copy.
			pushed = andExpr(pushed, tc.translated)
			sheet.Notes = append(sheet.Notes, "pushed PBY predicate "+tc.translated.String())
			continue
		}
		// Single-dimension conjuncts.
		d := singleDimOf(tc.translated, m)
		if d < 0 {
			keep = andExpr(keep, tc.orig)
			continue
		}
		dim := m.DimName(d)
		switch {
		case independent[d] && !hasUpsert:
			// Independent dimensions behave like partition columns.
			pushed = andExpr(pushed, tc.translated)
			sheet.Notes = append(sheet.Notes, "pushed independent-dimension predicate "+tc.translated.String())
			continue
		case funcInd[d] && !independent[d] && opts.Ablate.Push != PushNone:
			outerB := m.PredBound(tc.translated, dim)
			if vals, ok := outerB.FiniteVals(); ok && len(vals) > 0 {
				pred, note, err := pushThroughReference(m, d, vals, opts)
				if err != nil {
					return nil, err
				}
				if pred != nil {
					pushed = andExpr(pushed, pred)
					sheet.Notes = append(sheet.Notes, note)
					keep = andExpr(keep, tc.orig)
					continue
				}
			}
			keep = andExpr(keep, tc.orig)
			continue
		default:
			// Bounding-rectangle extension: widen the outer bound with the
			// spreadsheet's rectangle for the dimension and push that.
			outerB := m.PredBound(tc.translated, dim)
			ext := outerB.Union(sheetRect[d])
			if p := core.BoundPredicate(dim, ext); p != nil {
				pushed = andExpr(pushed, p)
				sheet.Notes = append(sheet.Notes, "pushed bounding-rectangle predicate "+p.String())
			}
			keep = andExpr(keep, tc.orig)
		}
	}
	if pushed != nil {
		sheet.Input = &Filter{Input: sheet.Input, Cond: pushed}
	}
	if keep == nil {
		return f.Input, nil
	}
	f.Cond = keep
	return f, nil
}

// pushThroughReference builds the pushed predicate for a functionally
// independent dimension using the configured transform.
func pushThroughReference(m *core.Model, d int, outerVals []types.Value, opts *Options) (sqlast.Expr, string, error) {
	dim := m.DimName(d)
	lookups := m.RefLookups(dim)
	if len(lookups) == 0 {
		return nil, "", nil
	}
	dimRef := &sqlast.ColumnRef{Name: dim}
	valLits := make([]sqlast.Expr, len(outerVals))
	for i, v := range outerVals {
		valLits[i] = &sqlast.Literal{Val: v}
	}
	switch opts.Ablate.Push {
	case PushRefSubquery:
		// dim IN (SELECT dim FROM ref WHERE dim IN vals UNION SELECT mea ...).
		var union sqlast.QueryExpr
		addArm := func(col string, ref *core.RefMeta) {
			body := &sqlast.SelectBody{
				Items: []sqlast.SelectItem{{Expr: &sqlast.ColumnRef{Name: col}, Alias: "$v"}},
				From:  []sqlast.TableRef{&sqlast.SubqueryRef{Sub: ref.Src.Query, Alias: "$r"}},
				Where: &sqlast.InList{X: &sqlast.ColumnRef{Name: dim}, List: valLits},
			}
			if union == nil {
				union = body
			} else {
				union = &sqlast.Union{L: union, R: body}
			}
		}
		seen := map[*core.RefMeta]bool{}
		for _, lk := range lookups {
			ref, ok := m.RefForMeasure(lk.Measure)
			if !ok {
				continue
			}
			if !seen[ref] {
				seen[ref] = true
				addArm(dim, ref)
			}
			addArm(lk.Measure, ref)
		}
		if union == nil {
			return nil, "", nil
		}
		pred := &sqlast.InSubquery{X: dimRef, Sub: &sqlast.SelectStmt{Query: union}}
		return pred, "pushed ref-subquery predicate on " + dim, nil
	case PushExtended, PushUnfold:
		if opts.Exec == nil {
			return nil, "", nil
		}
		vals, perMeasure, err := materializeRefLookups(m, dim, lookups, valLits, opts)
		if err != nil {
			return nil, "", err
		}
		all := append([]types.Value{}, outerVals...)
		all = appendDistinct(all, vals)
		if opts.Ablate.Push == PushUnfold {
			lookup := func(measure string, v types.Value) (types.Value, bool) {
				lv, ok := perMeasure[measure][types.Key(v)]
				return lv, ok
			}
			if err := m.UnfoldDim(d, outerVals, lookup); err != nil {
				return nil, "", err
			}
			pred := core.BoundPredicate(dim, core.ValueBound(all...))
			return pred, "unfolded formulas and pushed predicate on " + dim, nil
		}
		pred := core.BoundPredicate(dim, core.ValueBound(all...))
		return pred, "pushed extended predicate on " + dim, nil
	}
	return nil, "", nil
}

// materializeRefLookups executes "SELECT dim, mea FROM ref WHERE dim IN
// (vals)" for every lookup measure, returning all referenced values and the
// per-measure dim → value maps (for unfolding).
func materializeRefLookups(m *core.Model, dim string, lookups []*sqlast.CellRef, valLits []sqlast.Expr, opts *Options) ([]types.Value, map[string]map[string]types.Value, error) {
	var all []types.Value
	perMeasure := map[string]map[string]types.Value{}
	for _, lk := range lookups {
		ref, ok := m.RefForMeasure(lk.Measure)
		if !ok {
			continue
		}
		stmt := &sqlast.SelectStmt{Query: &sqlast.SelectBody{
			Items: []sqlast.SelectItem{
				{Expr: &sqlast.ColumnRef{Name: dim}},
				{Expr: &sqlast.ColumnRef{Name: lk.Measure}},
			},
			From:  []sqlast.TableRef{&sqlast.SubqueryRef{Sub: ref.Src.Query, Alias: "$r"}},
			Where: &sqlast.InList{X: &sqlast.ColumnRef{Name: dim}, List: valLits},
		}}
		_, rows, err := opts.Exec.Rows(stmt)
		if err != nil {
			return nil, nil, fmt.Errorf("extended pushing: %v", err)
		}
		mm := perMeasure[lk.Measure]
		if mm == nil {
			mm = map[string]types.Value{}
			perMeasure[lk.Measure] = mm
		}
		for _, r := range rows {
			mm[types.Key(r[0])] = r[1]
			all = appendDistinct(all, []types.Value{r[1]})
		}
	}
	return all, perMeasure, nil
}

func appendDistinct(dst []types.Value, src []types.Value) []types.Value {
	for _, v := range src {
		if v.IsNull() {
			continue
		}
		dup := false
		for _, w := range dst {
			if types.Equal(v, w) {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, v)
		}
	}
	return dst
}

// translateConj rewrites a conjunct's column references through the
// outer → working name map.
func translateConj(e sqlast.Expr, nameMap map[string]string) (sqlast.Expr, bool) {
	if sqlast.HasSubquery(e) {
		return nil, false
	}
	ok := true
	out := sqlast.Transform(e, func(n sqlast.Expr) sqlast.Expr {
		c, isCol := n.(*sqlast.ColumnRef)
		if !isCol {
			return n
		}
		w, found := nameMap[c.Name]
		if !found {
			ok = false
			return n
		}
		return &sqlast.ColumnRef{Name: w}
	})
	if !ok {
		return nil, false
	}
	return out, true
}

// singleColumnIs reports whether e references exactly one column, named col.
func singleColumnIs(e sqlast.Expr, col string) bool {
	refs := sqlast.ColumnRefs(e)
	if len(refs) == 0 {
		return false
	}
	for _, c := range refs {
		if c.Name != col {
			return false
		}
	}
	return true
}

// singleDimOf returns the DBY ordinal when e references exactly one DBY
// dimension (and nothing else), else -1.
func singleDimOf(e sqlast.Expr, m *core.Model) int {
	refs := sqlast.ColumnRefs(e)
	if len(refs) == 0 {
		return -1
	}
	d := -1
	for _, c := range refs {
		od := m.DimOrdinal(c.Name)
		if od < 0 {
			return -1
		}
		if d >= 0 && od != d {
			return -1
		}
		d = od
	}
	return d
}
