// Package core implements the paper's primary contribution: the SQL
// spreadsheet clause. It contains the compile-time binder and analysis
// (dependency graph, Tarjan SCC, scan-minimizing level generation, bounding
// rectangles, formula pruning and rewriting) and the run-time engine (the
// two-level hash access structure, the Auto-Acyclic / Auto-Cyclic /
// Sequential algorithms, reference spreadsheets, and partition-parallel
// execution).
package core

import (
	"fmt"

	"sqlsheet/internal/aggs"
	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// Model is a compiled spreadsheet clause bound to its working schema
// (PBY ++ DBY ++ MEA columns, in that order).
type Model struct {
	Clause *sqlast.SpreadsheetClause

	// Schema is the working schema the spreadsheet operates on.
	Schema *types.Schema
	// NPby/NDby/NMea give the column split: [0,NPby) partition columns,
	// [NPby, NPby+NDby) dimensions, rest measures.
	NPby, NDby, NMea int

	Rules []*Rule
	Refs  []*RefMeta

	IgnoreNav bool
	SeqOrder  bool
	Iterate   *sqlast.IterateOpt
	// ReturnUpdated restricts output to rows assigned or created by rules.
	ReturnUpdated bool

	// measures maps a measure name to its working-schema ordinal.
	measures map[string]int
	// refMeas maps a reference-sheet measure name to its sheet and the
	// measure's ordinal within that sheet's row layout.
	refMeas map[string]refMeaBinding

	// analysis products, filled by Analyze.
	levels   []level
	depEdges [][]int // depEdges[i] = rules that rule i depends on
	cyclic   bool

	// compiled maps every per-cell formula expression (rule right sides,
	// qualifier values/predicates/bounds, ORDER BY keys, aggregate
	// arguments) to its closure-compiled form. Built once at the start of
	// Run — after the optimizer's pruning/rewriting has settled the final
	// expression set — and read-only afterwards, so PE goroutines share it
	// without locking. A missing entry falls back to the interpreter.
	compiled map[sqlast.Expr]eval.CompiledExpr

	// vecRules maps each rule to its compiled batch form (or its fallback
	// reason). Built once like compiled (see buildVecRules), read-only
	// during execution.
	vecRules map[*Rule]*vecRuleProg

	// bs resolves column names against Schema; immutable, so every frame
	// evaluation and kernel compilation shares it.
	bs *eval.BoundSchema
}

type refMeaBinding struct {
	sheet *RefMeta
	mea   int // ordinal in the ref sheet row layout (dims first, then meas)
}

// RefMeta describes a compiled reference spreadsheet: a read-only
// n-dimensional lookup array over another query block.
type RefMeta struct {
	Name   string
	Src    *sqlast.RefSheet
	Dims   []string // dimension column names, in DBY order
	Meas   []string // measure column names
	Schema *types.Schema

	// Data is filled before Run by materializing the reference query (see
	// Load): an index from the DBY key to the row (dims ++ meas layout).
	Data map[string]types.Row
}

// Load indexes the reference query's rows (dims ++ meas layout) by their
// DBY key into Data. As on the main sheet, the DBY columns must identify a
// row: a second row with the key of an earlier one is an error naming the
// sheet, and Data keeps its previous contents. A NULL key is a key like any
// other (one row may have it).
func (r *RefMeta) Load(rows []types.Row) error {
	data := make(map[string]types.Row, len(rows))
	nd := len(r.Dims)
	var key []byte
	for _, row := range rows {
		key = key[:0]
		for _, v := range row[:nd] {
			key = types.AppendKey(key, v)
		}
		if _, dup := data[string(key)]; dup {
			return fmt.Errorf("spreadsheet: DBY columns (%s) of reference sheet %s do not uniquely identify row %v",
				joinNames(r.Dims), r.Name, row[:nd])
		}
		data[string(key)] = row
	}
	r.Data = data
	return nil
}

// Rule is a compiled formula.
type Rule struct {
	Src   *sqlast.Formula
	Label string
	// Upsert is the resolved mode (clause default applied). Existential
	// left sides always run in update mode.
	Upsert bool
	// Mea is the working-schema ordinal of the assigned measure.
	Mea int
	// Quals holds one compiled qualifier per DBY dimension, positionally.
	Quals   []Qual
	OrderBy []sqlast.OrderItem
	RHS     sqlast.Expr

	// Existential marks a left side that can address a range of cells and
	// therefore requires a scan (QualPred/QualRange/QualStar present).
	Existential bool
	// reads caches the cell accesses on the right side.
	reads []access
	// cellAggs caches the aggregate references on the right side
	// (sqlast.CellRefs), which evaluation consults once per frame.
	cellAggs []*sqlast.CellAgg
	// lhsRect is the bounding rectangle of the cells the rule writes.
	lhsRect Rect
	// level index assigned by Analyze.
	level int
	// sccID groups rules in the same strongly connected component; -1 for
	// rules outside any cycle.
	sccID int
}

// Qual is a compiled dimension qualifier.
type Qual struct {
	Kind sqlast.QualKind
	// Dim is the DBY ordinal this qualifier constrains.
	Dim int
	// DimName is the dimension's column name (for predicates and EXPLAIN).
	DimName string

	Val            sqlast.Expr
	Pred           sqlast.Expr
	Lo, Hi         sqlast.Expr
	LoIncl, HiIncl bool
	ForVals        []sqlast.Expr
	ForSub         *sqlast.SelectStmt
	// ForFrom/ForTo/ForStep hold a FROM..TO..INCREMENT enumeration.
	ForFrom, ForTo, ForStep sqlast.Expr
	// forCache holds the materialized FOR value list (set before Run).
	forCache []types.Value
}

// access describes one cell read on a rule's right side: a point reference
// or an aggregate over a range, with its bounding rectangle.
type access struct {
	// mea is the working-schema measure ordinal, or -1 when the access
	// resolves to a reference-sheet measure (refIdx >= 0 then).
	mea    int
	refIdx int
	// rect bounds the cells touched, per DBY dimension of the main sheet;
	// nil for reference-sheet accesses.
	rect Rect
	// agg is non-nil for aggregate accesses.
	agg *sqlast.CellAgg
	// cell is non-nil for point accesses.
	cell *sqlast.CellRef
	// scan marks accesses that require scanning the partition (aggregates
	// whose qualifiers are not all single-valued).
	scan bool
}

// Compile binds a spreadsheet clause against the working schema produced by
// the query block underneath it. refs carries the already-planned reference
// sheets (schema only; data is attached before Run).
func Compile(clause *sqlast.SpreadsheetClause, working *types.Schema, refs []*RefMeta) (*Model, error) {
	m := &Model{
		Clause:        clause,
		Schema:        working,
		NPby:          len(clause.PBY),
		NDby:          len(clause.DBY),
		NMea:          len(clause.MEA),
		Refs:          refs,
		IgnoreNav:     clause.IgnoreNav,
		SeqOrder:      clause.SeqOrder,
		Iterate:       clause.Iterate,
		ReturnUpdated: clause.ReturnUpdated,
		measures:      make(map[string]int),
		refMeas:       make(map[string]refMeaBinding),
		bs:            eval.FromSchema(working),
	}
	if m.NPby+m.NDby+m.NMea != working.Len() {
		return nil, fmt.Errorf("spreadsheet: working schema has %d columns, clause classifies %d",
			working.Len(), m.NPby+m.NDby+m.NMea)
	}
	seen := make(map[string]bool, working.Len())
	for _, c := range working.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("spreadsheet: duplicate column %q across PBY/DBY/MEA", c.Name)
		}
		seen[c.Name] = true
	}
	for i := 0; i < m.NMea; i++ {
		m.measures[working.Cols[m.NPby+m.NDby+i].Name] = m.NPby + m.NDby + i
	}
	for _, r := range refs {
		for i, mn := range r.Meas {
			if _, dup := m.refMeas[mn]; dup {
				return nil, fmt.Errorf("spreadsheet: reference measure %q is ambiguous across reference sheets", mn)
			}
			if _, dup := m.measures[mn]; dup {
				return nil, fmt.Errorf("spreadsheet: reference measure %q collides with a main measure", mn)
			}
			m.refMeas[mn] = refMeaBinding{sheet: r, mea: len(r.Dims) + i}
		}
	}
	for i, f := range clause.Rules {
		r, err := m.compileRule(f, i)
		if err != nil {
			return nil, err
		}
		m.Rules = append(m.Rules, r)
	}
	return m, nil
}

// DimName returns the name of DBY dimension d.
func (m *Model) DimName(d int) string { return m.Schema.Cols[m.NPby+d].Name }

// DimOrdinal returns the DBY index of the named dimension, or -1.
func (m *Model) DimOrdinal(name string) int {
	for d := 0; d < m.NDby; d++ {
		if m.DimName(d) == name {
			return d
		}
	}
	return -1
}

// PbyOrdinal returns the PBY index of the named partition column, or -1.
// cv() over a PBY column yields the partition's (constant) value — an
// extension that lets reference sheets be keyed by partition columns.
func (m *Model) PbyOrdinal(name string) int {
	for i := 0; i < m.NPby; i++ {
		if m.Schema.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// MeasureOrdinal returns the working-schema ordinal of a measure, or -1.
func (m *Model) MeasureOrdinal(name string) int {
	if i, ok := m.measures[name]; ok {
		return i
	}
	return -1
}

func (m *Model) compileRule(f *sqlast.Formula, idx int) (*Rule, error) {
	label := f.Label
	if label == "" {
		label = fmt.Sprintf("rule#%d", idx+1)
	}
	r := &Rule{Src: f, Label: label, OrderBy: f.OrderBy, RHS: f.RHS, sccID: -1}

	if f.LHS.Sheet != "" {
		return nil, fmt.Errorf("%s: left side must address the main spreadsheet, not %q", label, f.LHS.Sheet)
	}
	mea, ok := m.measures[f.LHS.Measure]
	if !ok {
		return nil, fmt.Errorf("%s: left side %q is not a MEA column", label, f.LHS.Measure)
	}
	r.Mea = mea

	quals, existential, err := m.compileQuals(label, f.LHS.Quals, false)
	if err != nil {
		return nil, err
	}
	r.Quals = quals
	r.Existential = existential

	mode := f.Mode
	if mode == sqlast.ModeDefault {
		mode = m.Clause.DefaultMode
	}
	if mode == sqlast.ModeUpsert && existential {
		if f.Mode == sqlast.ModeUpsert {
			// Explicit UPSERT with an existential left side is an error
			// (the dimension values to create cannot be enumerated).
			return nil, fmt.Errorf("%s: UPSERT is not allowed with an existential left side", label)
		}
		// The clause default silently degrades to UPDATE.
		mode = sqlast.ModeUpdate
	}
	r.Upsert = mode == sqlast.ModeUpsert

	if len(f.OrderBy) > 0 && !existential {
		return nil, fmt.Errorf("%s: ORDER BY is only meaningful on an existential left side", label)
	}
	for _, o := range f.OrderBy {
		for _, c := range sqlast.ColumnRefs(o.Expr) {
			if m.DimOrdinal(c.Name) < 0 {
				return nil, fmt.Errorf("%s: ORDER BY must use DBY dimensions, %q is not one", label, c.Name)
			}
		}
	}

	// The left side must not reference cv() (it defines cv()).
	for _, q := range f.LHS.Quals {
		if q.Val != nil && sqlast.ContainsCurrentV(q.Val) ||
			q.Pred != nil && sqlast.ContainsCurrentV(q.Pred) {
			return nil, fmt.Errorf("%s: cv() is not allowed on the left side", label)
		}
	}

	if err := m.checkRHS(label, f.RHS); err != nil {
		return nil, err
	}
	r.reads = m.collectReads(r)
	r.lhsRect = m.lhsRect(r)
	_, r.cellAggs = sqlast.CellRefs(r.RHS)
	return r, nil
}

// compileQuals binds positional qualifiers to DBY dimensions.
// rhs marks right-side references, which allow cv() but not FOR loops.
func (m *Model) compileQuals(label string, qs []sqlast.DimQual, rhs bool) ([]Qual, bool, error) {
	if len(qs) != m.NDby {
		return nil, false, fmt.Errorf("%s: cell reference has %d qualifiers, spreadsheet has %d dimensions",
			label, len(qs), m.NDby)
	}
	out := make([]Qual, len(qs))
	existential := false
	for i, q := range qs {
		dimName := m.DimName(i)
		cq := Qual{Kind: q.Kind, Dim: i, DimName: dimName,
			Val: q.Val, Pred: q.Pred, Lo: q.Lo, Hi: q.Hi,
			LoIncl: q.LoIncl, HiIncl: q.HiIncl, ForVals: q.ForVals, ForSub: q.ForSub,
			ForFrom: q.ForFrom, ForTo: q.ForTo, ForStep: q.ForStep}
		switch q.Kind {
		case sqlast.QualPoint:
			// A symbolic point must name the dimension at its position.
			if q.Dim != "" && q.Dim != dimName {
				return nil, false, fmt.Errorf("%s: qualifier %d names dimension %q but position binds %q",
					label, i+1, q.Dim, dimName)
			}
		case sqlast.QualStar:
			existential = true
		case sqlast.QualPred:
			// The predicate must reference this dimension (and only
			// dimensions at this position).
			if err := m.checkPredDims(label, q.Pred, dimName); err != nil {
				return nil, false, err
			}
			existential = true
		case sqlast.QualRange:
			if q.Dim != dimName {
				return nil, false, fmt.Errorf("%s: range qualifier %d is over %q but position binds %q",
					label, i+1, q.Dim, dimName)
			}
			existential = true
		case sqlast.QualForIn:
			if rhs {
				return nil, false, fmt.Errorf("%s: FOR loops are only allowed on the left side", label)
			}
			if q.Dim != dimName {
				return nil, false, fmt.Errorf("%s: FOR qualifier %d is over %q but position binds %q",
					label, i+1, q.Dim, dimName)
			}
		}
		out[i] = cq
	}
	return out, existential, nil
}

// checkPredDims verifies a predicate qualifier only constrains its own
// positional dimension.
func (m *Model) checkPredDims(label string, pred sqlast.Expr, dimName string) error {
	sawDim := false
	var badRef string
	sqlast.WalkExpr(pred, func(e sqlast.Expr) bool {
		switch x := e.(type) {
		case *sqlast.CellRef, *sqlast.CellAgg:
			return false // nested refs have their own checking
		case *sqlast.ColumnRef:
			if x.Name == dimName {
				sawDim = true
			} else if m.DimOrdinal(x.Name) >= 0 {
				badRef = x.Name
			}
			_ = x
		}
		return true
	})
	if badRef != "" {
		return fmt.Errorf("%s: predicate qualifier for %q references other dimension %q", label, dimName, badRef)
	}
	if !sawDim {
		return fmt.Errorf("%s: predicate qualifier must reference its dimension %q", label, dimName)
	}
	return nil
}

// checkRHS validates right-side cell references and aggregates.
func (m *Model) checkRHS(label string, rhs sqlast.Expr) error {
	var err error
	sqlast.WalkExpr(rhs, func(e sqlast.Expr) bool {
		if err != nil {
			return false
		}
		switch x := e.(type) {
		case *sqlast.CellRef:
			err = m.checkCellRef(label, x)
		case *sqlast.CellAgg:
			if !aggs.IsAggregate(x.Func) {
				err = fmt.Errorf("%s: %q is not an aggregate function", label, x.Func)
				return false
			}
			want := aggs.NumArgs(x.Func)
			if x.Star {
				if x.Func != "count" {
					err = fmt.Errorf("%s: %s(*) is not supported", label, x.Func)
					return false
				}
			} else if len(x.Args) != want {
				err = fmt.Errorf("%s: %s() takes %d arguments", label, x.Func, want)
				return false
			}
			if _, _, cerr := m.compileQuals(label, x.Quals, true); cerr != nil {
				err = cerr
				return false
			}
			// Aggregate arguments must be main-sheet measures.
			for _, a := range x.Args {
				c, ok := a.(*sqlast.ColumnRef)
				if !ok {
					continue // expressions over measures are evaluated per row
				}
				if _, isMea := m.measures[c.Name]; !isMea && m.DimOrdinal(c.Name) < 0 {
					err = fmt.Errorf("%s: aggregate argument %q is not a measure or dimension", label, c.Name)
					return false
				}
			}
		case *sqlast.CurrentV:
			if m.DimOrdinal(x.Dim) < 0 && m.PbyOrdinal(x.Dim) < 0 {
				err = fmt.Errorf("%s: cv(%s) does not name a DBY or PBY column", label, x.Dim)
				return false
			}
		case *sqlast.Previous:
			err = fmt.Errorf("%s: previous() is only valid in UNTIL conditions", label)
			return false
		}
		return true
	})
	return err
}

func (m *Model) checkCellRef(label string, x *sqlast.CellRef) error {
	if x.Sheet != "" {
		// Explicitly qualified reference-sheet access.
		ref := m.findRef(x.Sheet)
		if ref == nil {
			return fmt.Errorf("%s: unknown reference spreadsheet %q", label, x.Sheet)
		}
		return m.checkRefCell(label, ref, x)
	}
	if _, ok := m.measures[x.Measure]; ok {
		// Main-sheet point reference: every qualifier must be single-valued.
		for i, q := range x.Quals {
			switch q.Kind {
			case sqlast.QualPoint:
			default:
				return fmt.Errorf("%s: right-side reference %s qualifier %d must be a single value (use an aggregate for ranges)",
					label, x, i+1)
			}
		}
		if len(x.Quals) != m.NDby {
			return fmt.Errorf("%s: cell reference %s has %d qualifiers, spreadsheet has %d dimensions",
				label, x, len(x.Quals), m.NDby)
		}
		return nil
	}
	if rb, ok := m.refMeas[x.Measure]; ok {
		return m.checkRefCell(label, rb.sheet, x)
	}
	return fmt.Errorf("%s: %q is not a measure of the spreadsheet or any reference sheet", label, x.Measure)
}

func (m *Model) checkRefCell(label string, ref *RefMeta, x *sqlast.CellRef) error {
	found := false
	for _, mn := range ref.Meas {
		if mn == x.Measure {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("%s: %q is not a measure of reference sheet %q", label, x.Measure, ref.Name)
	}
	if len(x.Quals) != len(ref.Dims) {
		return fmt.Errorf("%s: reference %s has %d qualifiers, sheet %q has %d dimensions",
			label, x, len(x.Quals), ref.Name, len(ref.Dims))
	}
	for i, q := range x.Quals {
		if q.Kind != sqlast.QualPoint {
			return fmt.Errorf("%s: reference sheet access %s qualifier %d must be a single value", label, x, i+1)
		}
		if q.Dim != "" && q.Dim != ref.Dims[i] {
			return fmt.Errorf("%s: qualifier %d names %q but reference dimension is %q", label, i+1, q.Dim, ref.Dims[i])
		}
	}
	return nil
}

// buildCompiled populates the compiled-expression registry against the
// working schema: every node of every rule's right side, left-side
// qualifiers and ORDER BY keys, and of the UNTIL condition. The per-cell
// loops evaluate whole trees and — for cell-key probing, target matching,
// predicate enumeration and aggregate arguments — pieces of them standalone;
// registering each node means no site has to say which pieces those are.
func (m *Model) buildCompiled() {
	m.compiled = make(map[sqlast.Expr]eval.CompiledExpr)
	regTree := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			if _, ok := m.compiled[n]; !ok {
				m.compiled[n] = eval.Compile(m.bs, n)
			}
			return true
		})
	}
	for _, r := range m.Rules {
		regTree(r.RHS)
		for i := range r.Quals {
			q := &r.Quals[i]
			regTree(q.Val)
			regTree(q.Pred)
			regTree(q.Lo)
			regTree(q.Hi)
		}
		for _, o := range r.OrderBy {
			regTree(o.Expr)
		}
	}
	if m.Iterate != nil {
		regTree(m.Iterate.Until)
	}
}

// refBinding resolves a reference-sheet cell reference — unqualified by its
// measure name, sheet-qualified by sheet and measure — to the sheet and the
// measure's ordinal in the sheet's row layout.
func (m *Model) refBinding(c *sqlast.CellRef) (refMeaBinding, bool) {
	if rb, ok := m.refMeas[c.Measure]; ok && (c.Sheet == "" || rb.sheet.Name == c.Sheet) {
		return rb, true
	}
	if c.Sheet == "" {
		return refMeaBinding{}, false
	}
	if ref := m.findRef(c.Sheet); ref != nil {
		for i, mn := range ref.Meas {
			if mn == c.Measure {
				return refMeaBinding{sheet: ref, mea: len(ref.Dims) + i}, true
			}
		}
	}
	return refMeaBinding{}, false
}

func (m *Model) findRef(name string) *RefMeta {
	for _, r := range m.Refs {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// collectReads gathers the rule's right-side cell accesses with their
// bounding rectangles (R(F) in the paper).
func (m *Model) collectReads(r *Rule) []access {
	var reads []access
	add := func(a access) { reads = append(reads, a) }
	cells, cellAggs := sqlast.CellRefs(r.RHS)
	for _, c := range cells {
		a := access{cell: c, mea: -1, refIdx: -1}
		if rb, ok := m.refMeas[c.Measure]; ok && c.Sheet == "" {
			a.refIdx = m.refIndex(rb.sheet)
		} else if c.Sheet != "" {
			a.refIdx = m.refIndexByName(c.Sheet)
		} else if mi, ok := m.measures[c.Measure]; ok {
			a.mea = mi
			a.rect = m.refRect(c.Quals, r)
		}
		add(a)
	}
	for _, ca := range cellAggs {
		a := access{agg: ca, mea: -1, refIdx: -1}
		// An aggregate reads the measures named in its arguments.
		for _, arg := range ca.Args {
			if c, ok := arg.(*sqlast.ColumnRef); ok {
				if mi, ok := m.measures[c.Name]; ok {
					a.mea = mi // first measure argument anchors the access
					break
				}
			}
		}
		if ca.Star && a.mea == -1 {
			a.mea = -2 // count(*) reads row existence rather than a measure
		}
		a.rect = m.refRect(ca.Quals, r)
		a.scan = !allPoints(ca.Quals)
		add(a)
	}
	return reads
}

func allPoints(qs []sqlast.DimQual) bool {
	for _, q := range qs {
		if q.Kind != sqlast.QualPoint {
			return false
		}
	}
	return true
}

func (m *Model) refIndex(ref *RefMeta) int {
	for i, r := range m.Refs {
		if r == ref {
			return i
		}
	}
	return -1
}

func (m *Model) refIndexByName(name string) int {
	for i, r := range m.Refs {
		if r.Name == name {
			return i
		}
	}
	return -1
}
