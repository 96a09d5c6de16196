package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"sqlsheet/internal/eval"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// One kind per measure (DESIGN §4). Compile decides each measure's kind:
// the union (eval.UnionKind) of its source's static kind, as the plan gave
// it in the working schema, and of every right side that assigns it, cell
// references to measures resolved by fixpoint. A right side compile time
// cannot type adds nothing. Every value is converted to the kind on the way
// in (input.value, bucket.admit): INT widens to FLOAT, anything else is a
// KindError. A caller that cannot type a measure's source (Run over rows
// alone) leaves the measures unseen, and each run decides them the same way
// from its input's kinds (runKinds).

// KindError is a measure that would hold values of two kinds that share
// none: two of its sources at compile time, or at run time a value its kind
// does not take. The text orders the kinds, so it is the same whichever
// value came first.
type KindError struct {
	Measure   string
	Want, Got types.Kind
}

func (e *KindError) Error() string {
	a, b := e.Want, e.Got
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("spreadsheet: measure %s cannot hold both %s and %s values", e.Measure, a, b)
}

// KindConflict returns the KindError of measure name when err is a
// *eval.KindConflict, else err.
func KindConflict(name string, err error) error {
	var c *eval.KindConflict
	if errors.As(err, &c) {
		return &KindError{Measure: name, Want: c.A, Got: c.B}
	}
	return err
}

// Kinds returns the static kind of every working column: a key's as the
// plan gave it, a measure's as Compile decided it (eval.KindUnseen when it
// is decided per run). Read-only.
func (m *Model) Kinds() []types.Kind { return m.kinds }

// KindsNote is EXPLAIN's line of the measures' kinds ("input" for one
// decided per run).
func (m *Model) KindsNote() string {
	notes := make([]string, m.NMea)
	for k, name := range m.MeasureNames() {
		ks := m.kinds[m.NPby+m.NDby+k].String()
		if m.kinds[m.NPby+m.NDby+k] == eval.KindUnseen {
			ks = "input"
		}
		notes[k] = name + " " + ks
	}
	return "kinds: " + strings.Join(notes, ", ")
}

// decideKinds records the kinds sub gives the rules' scalar subqueries (the
// model keeps the kinds, not sub, which may hold its caller's state) and
// fills m.kinds from the working schema, solving the measures' unless some
// measure's source is unseen.
func (m *Model) decideKinds(sub func(*sqlast.SelectStmt) types.Kind) error {
	for _, r := range m.Rules {
		sqlast.WalkExpr(r.RHS, func(e sqlast.Expr) bool {
			if s, ok := e.(*sqlast.ScalarSubquery); ok && sub != nil {
				if m.subKinds == nil {
					m.subKinds = make(map[*sqlast.SelectStmt]types.Kind)
				}
				m.subKinds[s.Sub] = sub(s.Sub)
			}
			return true
		})
	}
	m.kinds = make([]types.Kind, m.Schema.Len())
	for i, c := range m.Schema.Cols {
		m.kinds[i] = c.Kind
	}
	if slices.Contains(m.kinds[m.NPby+m.NDby:], eval.KindUnseen) {
		return nil
	}
	return m.solveKinds(m.kinds)
}

// solveKinds turns the measure entries of kinds, their sources' kinds, into
// the measures' kinds: each meets every right side that assigns it, until
// none changes (kinds only grow, so it ends). A measure whose only values
// come from right sides of unseen kind has no kind to hold them in.
func (m *Model) solveKinds(kinds []types.Kind) error {
	nk := m.NPby + m.NDby
	env := &eval.KindEnv{
		Col: func(c *sqlast.ColumnRef) types.Kind {
			if ord, ok, err := m.bs.Resolve(c.Table, c.Name); ok && err == nil {
				return kinds[ord]
			}
			return eval.KindUnseen
		},
		Cell: func(c *sqlast.CellRef) types.Kind {
			if mea := m.MeasureOrdinal(c.Measure); c.Sheet == "" && mea >= 0 {
				return kinds[mea]
			}
			if rb, ok := m.refBinding(c); ok && rb.sheet.Schema != nil && rb.mea < rb.sheet.Schema.Len() {
				return rb.sheet.Schema.Cols[rb.mea].Kind
			}
			return eval.KindUnseen
		},
		CV: func(dim string) types.Kind {
			if d := m.DimOrdinal(dim); d >= 0 {
				return kinds[m.NPby+d]
			}
			if p := m.PbyOrdinal(dim); p >= 0 {
				return kinds[p]
			}
			return eval.KindUnseen
		},
		Sub: func(s *sqlast.SelectStmt) types.Kind {
			if k, ok := m.subKinds[s]; ok {
				return k
			}
			return eval.KindUnseen
		},
		IgnoreNav: m.IgnoreNav,
	}
	blind := make([]bool, len(kinds))
	for changed := true; changed; {
		changed = false
		for _, r := range m.Rules {
			name := m.Schema.Cols[r.Mea].Name
			k, err := eval.StaticKind(r.RHS, env)
			if err != nil {
				return KindConflict(name, err)
			}
			if k == eval.KindUnseen {
				blind[r.Mea] = true
				continue
			}
			u, ok := eval.UnionKind(kinds[r.Mea], k)
			if !ok {
				return &KindError{Measure: name, Want: kinds[r.Mea], Got: k}
			}
			changed = changed || u != kinds[r.Mea]
			kinds[r.Mea] = u
		}
	}
	for ord := nk; ord < len(kinds); ord++ {
		if blind[ord] && kinds[ord] == types.KindNull {
			return fmt.Errorf("spreadsheet: measure %s has no known kind: every value assigned to it is of a kind known only when it runs", m.Schema.Cols[ord].Name)
		}
	}
	return nil
}

// kindOf is the union of the kinds of input column ord's values.
func (in *input) kindOf(ord int) (types.Kind, error) {
	if c := in.cols[ord]; c != nil {
		return c.Kind, nil
	}
	got := types.KindNull
	for _, row := range in.rows {
		u, ok := eval.UnionKind(got, row[ord].K)
		if !ok {
			return got, &eval.KindConflict{A: got, B: row[ord].K}
		}
		got = u
	}
	return got, nil
}

// runKinds decides each measure's kind for a run over in — Compile's, or
// solved from the input's kinds when Compile left it unseen — and which
// measures' input values read as FLOAT (in.conv). An input value of
// another kind than its measure's, INT under FLOAT aside, is a KindError.
func (in *input) runKinds(m *Model) error {
	nk := m.NPby + m.NDby
	in.kinds = m.kinds[nk:]
	in.conv = make([]bool, m.Schema.Len())
	if slices.Contains(in.kinds, eval.KindUnseen) {
		kinds := slices.Clone(m.kinds)
		for ord, k := range kinds {
			if k != eval.KindUnseen {
				continue
			}
			got, err := in.kindOf(ord)
			switch {
			case err == nil:
				kinds[ord] = got
			case ord >= nk: // a key whose values mix stays unseen
				return KindConflict(m.Schema.Cols[ord].Name, err)
			}
		}
		if err := m.solveKinds(kinds); err != nil {
			return err
		}
		in.kinds = kinds[nk:]
	}
	for k, want := range in.kinds {
		ord := nk + k
		got, err := in.kindOf(ord)
		if err != nil {
			return KindConflict(m.Schema.Cols[ord].Name, err)
		}
		if u, ok := eval.UnionKind(want, got); !ok || u != want {
			return &KindError{Measure: m.Schema.Cols[ord].Name, Want: want, Got: got}
		}
		c := in.cols[ord]
		in.conv[ord] = want == types.KindFloat && (c == nil || c.Kind == types.KindInt)
	}
	return nil
}

// admit returns v as a value of measure k's kind, a KindError when the
// kind does not take it.
func (b *bucket) admit(k int, v types.Value) (types.Value, error) {
	if err := b.admitKind(k, v.K); err != nil {
		return types.Null, err
	}
	if v.K == types.KindInt && b.src.kinds[k] == types.KindFloat {
		return types.NewFloat(float64(v.I)), nil
	}
	return v, nil
}

// admitKind reports a KindError unless measure k's kind takes values of
// kind got (KindNull: none).
func (b *bucket) admitKind(k int, got types.Kind) error {
	want := b.src.kinds[k]
	if got == types.KindNull || got == want || want == types.KindFloat && got == types.KindInt {
		return nil
	}
	return &KindError{Measure: b.m.Schema.Cols[b.nk()+k].Name, Want: want, Got: got}
}
