package blockstore

import (
	"fmt"

	"sqlsheet/internal/colstore"
	"sqlsheet/internal/types"
)

// encodeBlock serializes a block of rows for the spill file as a colstore page
// (colstore.AppendPage): column-major, dictionary- and varint-compressed,
// decoded without per-value kind tags; a column that mixes kinds (a
// spreadsheet measure can) travels kind-tagged inside the page. The format is
// private to a single store's lifetime, so it carries no cross-version
// compatibility.
//
// A page needs a rectangular block. Both users of the spill store — bucket
// stores of the spreadsheet access structure and external-sort runs — store
// rows of one arity, so a ragged block is a caller bug and an encode error,
// not a second format.
func encodeBlock(rows []types.Row) ([]byte, error) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	out, ok := colstore.AppendPage(nil, ncols, rows)
	if !ok {
		return nil, fmt.Errorf("block of %d rows is not rectangular (%d columns expected)", len(rows), ncols)
	}
	return out, nil
}

func decodeBlock(data []byte) ([]types.Row, error) {
	return colstore.DecodePage(data)
}
