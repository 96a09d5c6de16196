package sqlsheet

import (
	"context"
	"fmt"

	"sqlsheet/internal/apb"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/plancache"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
)

// mutation is one change to the database in the form the write path takes
// it: how to apply it, and the log record that reproduces it. There is one
// constructor per record kind, and both the public mutators and recovery
// build their mutations with them, so a replayed record does exactly what
// the call that logged it did.
type mutation struct {
	// kind and data are the write-ahead log record (wal.Kind*); data is
	// called only when a log is attached. The one step without a record is
	// kind 0, a SELECT between the writes of a batch: a read, which runs
	// under the lock like its neighbours and is neither logged nor published.
	kind byte
	data func() []byte
	// apply makes the change, all or nothing: when it returns an error the
	// catalog, every table's rows and every version are what they were.
	apply func() error
}

// mutate is the one write path: every mutation of the database, whatever
// public call it arrived through, lives its whole life here. Under the
// exclusive statement lock each mutation is applied, appended to the log and
// published (mutateLocked), in that order; then the auto-checkpoint threshold
// is checked, the lock released and the last appended position committed —
// outside the lock, so the group-commit fsyncs of concurrent writers coalesce
// instead of serializing them. A mutation that fails stops the batch, and
// has itself left no trace in memory or in the log; the ones before it stay
// applied, and are committed like those of a batch that succeeded, so the
// error return never leaves an applied statement waiting for its fsync.
func (db *DB) mutate(ctx context.Context, muts ...mutation) error {
	db.stmtMu.Lock()
	var pos wal.Pos
	var err error
	for _, m := range muts {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = db.mutateLocked(m, &pos); err != nil {
			break
		}
	}
	l := db.wal
	if l != nil && l.SizeBytes() > walAutoCheckpoint {
		_ = db.checkpointLocked() // on failure the log just stays long; the next write tries again
	}
	db.stmtMu.Unlock()
	if l == nil {
		return err
	}
	// If Close won the race to the lock it fsynced on its way out, and Commit
	// treats a closed log as covered.
	if cerr := l.Commit(pos); err == nil {
		err = cerr
	}
	return err
}

// mutateLocked takes one mutation through apply → append → publish; the
// caller holds the exclusive statement lock. The order is what makes a
// failed statement a no-op everywhere: it is never appended and never
// published. A record is appended (and under fsync=always durable) before any
// reader can pin the rows it describes. If the append itself fails, the
// statement returns that error having applied to the writer's master rows
// only: it is not published, so no reader sees it, and the log is poisoned
// from then on (wal.Log.Err), which db.failed remembers past Close, so no
// later mutation runs on top of it — a restart recovers exactly the
// acknowledged prefix. With no log attached — which includes recovery
// replaying one — the middle step is skipped.
func (db *DB) mutateLocked(m mutation, pos *wal.Pos) error {
	if m.kind == 0 {
		return m.apply() // a read: a failed log does not stop those
	}
	if db.failed == nil && db.wal != nil {
		db.failed = db.wal.Err()
	}
	if db.failed != nil {
		return db.failed
	}
	if err := m.apply(); err != nil {
		return err
	}
	if db.wal != nil {
		p, err := db.wal.Append(m.kind, m.data())
		if err != nil {
			return err
		}
		*pos = p
	}
	db.cat.PublishAll()
	return nil
}

// stmtMutation is record kind S: one parsed statement, logged as its
// canonical text. out receives the statement's result. A SELECT (legal
// inside a write batch) goes through the read path, under its key, and has
// no record.
func (db *DB) stmtMutation(ctx context.Context, s *session, stmt sqlast.Statement, key uint64, out **Result) mutation {
	if sel, ok := stmt.(*sqlast.SelectStmt); ok {
		return mutation{apply: func() (err error) {
			*out, _, err = db.read(ctx, s, sel, key, serve)
			return err
		}}
	}
	return mutation{
		kind: wal.KindStmt,
		data: func() []byte { return []byte(sqlast.FormatStatement(stmt)) },
		apply: func() error {
			res, err := db.newExecutor(ctx, s, nil).ExecStatement(stmt)
			if err == nil {
				*out = wrapResult(res)
			}
			return err
		},
	}
}

// createMutation is record kind C: a programmatic CreateTable.
func (db *DB) createMutation(name string, cols []types.Column) mutation {
	return mutation{
		kind: wal.KindCreate,
		data: func() []byte { return wal.EncodeCreate(name, cols) },
		apply: func() error {
			_, err := db.cat.Create(name, types.NewSchema(cols...))
			return err
		},
	}
}

// rowsMutation is record kind R: a programmatic row load (Insert, LoadCSV,
// a checkpointed table's contents). Table.Insert stores all rows or none.
func (db *DB) rowsMutation(table string, rows []types.Row) mutation {
	return mutation{
		kind: wal.KindRows,
		data: func() []byte { return wal.EncodeRows(table, rows) },
		apply: func() error {
			t, ok := db.cat.Get(table)
			if !ok {
				return fmt.Errorf("unknown table %q", table)
			}
			return t.Insert(rows...)
		},
	}
}

// apbMutation is record kind A: an InstallAPB. The generator is deterministic
// in its scale, so the record holds only that; d is the dataset generated
// from it, outside the lock.
func (db *DB) apbMutation(scale APBScale, d *apb.Data) mutation {
	return mutation{
		kind:  wal.KindAPB,
		data:  func() []byte { return wal.EncodeAPB(wal.APBParams(scale)) },
		apply: func() error { return d.Install(db.cat) },
	}
}

// decodeRecord turns one log record back into the mutations that produced
// it, built by the same constructors the live calls use.
func (db *DB) decodeRecord(s *session, rec wal.Record) ([]mutation, error) {
	switch rec.Kind {
	case wal.KindStmt:
		stmts, err := parser.Parse(string(rec.Data))
		if err != nil {
			return nil, err
		}
		keys := plancache.StmtKeys(stmts)
		muts := make([]mutation, len(stmts))
		for i, stmt := range stmts {
			muts[i] = db.stmtMutation(context.Background(), s, stmt, keys[i], new(*Result))
		}
		return muts, nil
	case wal.KindCreate:
		name, cols, err := wal.DecodeCreate(rec.Data)
		if err != nil {
			return nil, err
		}
		return []mutation{db.createMutation(name, cols)}, nil
	case wal.KindRows:
		table, rows, err := wal.DecodeRows(rec.Data)
		if err != nil {
			return nil, err
		}
		return []mutation{db.rowsMutation(table, rows)}, nil
	case wal.KindAPB:
		p, err := wal.DecodeAPB(rec.Data)
		if err != nil {
			return nil, err
		}
		scale := APBScale(p)
		return []mutation{db.apbMutation(scale, apb.Generate(scale))}, nil
	}
	return nil, fmt.Errorf("unknown record kind")
}
