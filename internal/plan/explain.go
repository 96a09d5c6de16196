package plan

import (
	"fmt"
	"strings"
)

// Explain renders a plan tree as indented text, including the optimizer's
// spreadsheet decisions (pushed predicates, pruned/rewritten formulas,
// execution levels).
func Explain(n Node) string {
	var b strings.Builder
	explainNode(&b, n, 0)
	return b.String()
}

func explainNode(b *strings.Builder, n Node, depth int) {
	pad := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "%sScan %s", pad, x.Table.Name)
		if x.Alias != "" && x.Alias != x.Table.Name {
			fmt.Fprintf(b, " as %s", x.Alias)
		}
		if x.Filter != nil {
			fmt.Fprintf(b, " filter=%s vectorized=%s", x.Filter, vecNote(x.VecNote, x.FilterK.Valid()))
		}
		b.WriteByte('\n')
	case *CTERef:
		fmt.Fprintf(b, "%sCTE %s as %s", pad, x.Def.Name, x.Alias)
		if x.Filter != nil {
			fmt.Fprintf(b, " filter=%s", x.Filter)
		}
		b.WriteByte('\n')
		explainNode(b, x.Def.Plan, depth+1)
	case *Filter:
		fmt.Fprintf(b, "%sFilter %s vectorized=%s\n", pad, x.Cond, vecNote(x.VecNote, x.CondK.Valid()))
		explainNode(b, x.Input, depth+1)
	case *Project:
		names := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			names[i] = e.String()
		}
		fmt.Fprintf(b, "%sProject %s vectorized=%s\n", pad,
			strings.Join(names, ", "), vecNote(x.VecNote, false))
		explainNode(b, x.Input, depth+1)
	case *Join:
		fmt.Fprintf(b, "%s%s Join (%s)", pad, x.Type, x.Method)
		for i := range x.LeftKeys {
			if i == 0 {
				b.WriteString(" on ")
			} else {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(b, "%s = %s", x.LeftKeys[i], x.RightKeys[i])
		}
		if x.Residual != nil {
			fmt.Fprintf(b, " residual=%s", x.Residual)
		}
		fmt.Fprintf(b, " vectorized=%s", vecNote(x.VecNote, false))
		b.WriteByte('\n')
		explainNode(b, x.L, depth+1)
		explainNode(b, x.R, depth+1)
	case *GroupBy:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = k.String()
		}
		aggsS := make([]string, len(x.Aggs))
		for i, a := range x.Aggs {
			aggsS[i] = a.Call.String()
		}
		fmt.Fprintf(b, "%sGroupBy keys=[%s] aggs=[%s] vectorized=%s\n", pad,
			strings.Join(keys, ", "), strings.Join(aggsS, ", "),
			vecNote(x.VecNote, false))
		explainNode(b, x.Input, depth+1)
	case *Union:
		all := ""
		if x.All {
			all = " ALL"
		}
		fmt.Fprintf(b, "%sUnion%s\n", pad, all)
		explainNode(b, x.L, depth+1)
		explainNode(b, x.R, depth+1)
	case *Distinct:
		fmt.Fprintf(b, "%sDistinct\n", pad)
		explainNode(b, x.Input, depth+1)
	case *Sort:
		items := make([]string, len(x.Items))
		for i, it := range x.Items {
			items[i] = it.Expr.String()
			if it.Desc {
				items[i] += " DESC"
			}
		}
		fmt.Fprintf(b, "%sSort %s\n", pad, strings.Join(items, ", "))
		if x.Note != "" {
			fmt.Fprintf(b, "%s  * %s\n", pad, x.Note)
		}
		explainNode(b, x.Input, depth+1)
	case *Limit:
		fmt.Fprintf(b, "%sLimit %d\n", pad, x.N)
		explainNode(b, x.Input, depth+1)
	case *Window:
		specs := make([]string, len(x.Specs))
		for i, s := range x.Specs {
			specs[i] = s.Fn.String()
		}
		fmt.Fprintf(b, "%sWindow %s\n", pad, strings.Join(specs, ", "))
		explainNode(b, x.Input, depth+1)
	case *Alias:
		explainNode(b, x.Input, depth)
	case *OneRow:
		fmt.Fprintf(b, "%sOneRow\n", pad)
	case *Spreadsheet:
		m := x.Model
		fmt.Fprintf(b, "%sSpreadsheet PBY(%s) DBY(%s) MEA(%s)",
			pad,
			strings.Join(m.PbyNames(), ", "),
			strings.Join(m.DimNames(), ", "),
			strings.Join(m.MeasureNames(), ", "))
		if m.SeqOrder {
			b.WriteString(" SEQUENTIAL ORDER")
		}
		if m.Iterate != nil {
			fmt.Fprintf(b, " ITERATE(%d)", m.Iterate.N)
		}
		b.WriteByte('\n')
		for _, note := range x.Notes {
			fmt.Fprintf(b, "%s  * %s\n", pad, note)
		}
		if err := m.Analyze(); err == nil {
			steps, cyclic := m.Levels()
			for li, step := range steps {
				kind := "level"
				if cyclic[li] {
					kind = "cycle"
				}
				fmt.Fprintf(b, "%s  %s %d:\n", pad, kind, li+1)
				for _, ri := range step {
					if ri < len(x.RuleVecNotes) {
						fmt.Fprintf(b, "%s    %s vectorized=%s\n", pad, m.Rules[ri].Src, x.RuleVecNotes[ri])
					} else {
						fmt.Fprintf(b, "%s    %s\n", pad, m.Rules[ri].Src)
					}
				}
			}
		}
		for i, rp := range x.RefPlans {
			fmt.Fprintf(b, "%s  reference %s:\n", pad, m.Refs[i].Name)
			explainNode(b, rp, depth+2)
		}
		explainNode(b, x.Input, depth+1)
	default:
		fmt.Fprintf(b, "%s%T\n", pad, n)
	}
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// vecNote renders a node's vectorized= annotation. Plans built through
// plan.Build always carry a note with the fallback reason; hand-built plans
// (tests) fall back to plain yes/no from the kernel slot.
func vecNote(note string, valid bool) string {
	if note != "" {
		return note
	}
	return yesNo(valid)
}
