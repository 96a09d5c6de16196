package core

import (
	"fmt"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
)

// runSequential executes a SEQUENTIAL ORDER (or ITERATE) spreadsheet:
// formulas run in lexical order — grouped into shared-scan levels of
// consecutive independent formulas by the analysis — optionally repeated
// ITERATE(n) times with an UNTIL condition checked after each pass.
func (fe *frameEval) runSequential() error {
	iterN := 1
	var until sqlast.Expr
	if it := fe.m.Iterate; it != nil {
		iterN = it.N
		until = it.Until
	}
	var prevNodes []*sqlast.Previous
	if until != nil {
		sqlast.WalkExpr(until, func(e sqlast.Expr) bool {
			if p, ok := e.(*sqlast.Previous); ok {
				prevNodes = append(prevNodes, p)
			}
			return true
		})
	}
	for iter := 0; iter < iterN; iter++ {
		// Cancellation point: ITERATE counts can be enormous (the clause
		// allows ITERATE(1e9)), so every pass polls the context.
		if err := fe.opts.ctxErr(); err != nil {
			return err
		}
		if until != nil {
			if err := fe.snapshotPrevious(prevNodes); err != nil {
				return err
			}
		}
		for _, lv := range fe.m.levels {
			if err := fe.runLevel(lv.rules, fe.own()); err != nil {
				return err
			}
		}
		if until != nil {
			stop, err := fe.evalUntil(until)
			if err != nil {
				return err
			}
			if stop {
				return nil
			}
		}
	}
	return nil
}

// snapshotPrevious records, at the start of an iteration, the values that
// previous(cell) must report inside the UNTIL condition.
func (fe *frameEval) snapshotPrevious(nodes []*sqlast.Previous) error {
	if fe.previousVals == nil {
		fe.previousVals = make(map[*sqlast.Previous]types.Value, len(nodes))
	}
	ctx := fe.constCtx()
	for _, p := range nodes {
		v, err := fe.evalCellRef(ctx, p.Cell)
		if err != nil {
			return fmt.Errorf("previous(%s): %v", p.Cell, err)
		}
		fe.previousVals[p] = v
	}
	return nil
}

// evalUntil evaluates the UNTIL condition after an iteration. Cells read
// directly see post-iteration values; previous() sees the snapshot.
func (fe *frameEval) evalUntil(until sqlast.Expr) (bool, error) {
	ctx := fe.newCtx()
	ctx.Previous = func(p *sqlast.CellRef) (types.Value, error) {
		for node, v := range fe.previousVals {
			if node.Cell == p {
				return v, nil
			}
		}
		return types.Null, fmt.Errorf("previous(%s): no snapshot (internal)", p)
	}
	ok, err := fe.evalBool(ctx, until)
	if err != nil {
		return false, fmt.Errorf("UNTIL: %v", err)
	}
	return ok, nil
}
