package sqlsheet

import (
	"fmt"

	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/wal"
)

// SyncMode re-exports the write-ahead log's durability modes.
type SyncMode = wal.SyncMode

// Sync modes for EnableWAL: SyncGroup coalesces post-apply fsyncs across
// concurrent committers (the default), SyncAlways fsyncs before every
// statement is published, SyncNone never fsyncs.
const (
	SyncGroup  = wal.SyncGroup
	SyncAlways = wal.SyncAlways
	SyncNone   = wal.SyncNone
)

// ParseSyncMode converts a -fsync flag value ("group", "always", "none").
func ParseSyncMode(s string) (SyncMode, error) { return wal.ParseSyncMode(s) }

// WALCounters re-exports the log's cumulative statistics for monitoring.
type WALCounters = wal.Counters

// walAutoCheckpoint is the log size past which a write compacts it.
const walAutoCheckpoint int64 = 64 << 20

// EnableWAL attaches a write-ahead log in dir, first replaying any existing
// log so the database recovers the state it last acknowledged. Each record is
// decoded back into the mutation that wrote it and applied through the write
// path's own per-mutation step with no log attached: statements re-execute in
// log order, programmatic loads re-apply their recorded rows, and APB installs
// regenerate from their recorded scale. Only mutations that succeeded are ever
// logged, so replay is strict: a well-framed record that does not decode or
// does not apply fails EnableWAL with an error naming the record's ordinal
// and kind, rather than silently dropping a statement someone was told had
// committed (a torn or corrupt frame still just ends the log: nothing after
// it was acknowledged). On error the DB holds a partial replay and must be
// discarded. Call it on a freshly opened DB before sharing it between
// goroutines; subsequent mutations are logged as they apply and acknowledged
// only after their records are durable per mode.
func (db *DB) EnableWAL(dir string, mode SyncMode) error {
	s := db.sess.Load()
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if db.wal != nil {
		return fmt.Errorf("sqlsheet: wal already enabled")
	}
	l, err := wal.Open(dir, mode, 0)
	if err != nil {
		return err
	}
	n := 0
	err = l.Replay(func(rec wal.Record) error {
		n++
		if rec.Kind == wal.KindReset {
			// A checkpoint's leading marker: the records that follow rebuild
			// the full state, so everything replayed so far is dropped. Replay
			// already starts at the newest checkpoint segment, on a fresh DB,
			// so normally there is nothing to drop — this keeps the record's
			// meaning honest regardless.
			for _, name := range append(db.cat.ViewNames(), db.cat.Names()...) {
				db.cat.DropObject(name)
			}
			return nil
		}
		muts, err := db.decodeRecord(s, rec)
		for _, m := range muts {
			if err != nil {
				break
			}
			err = db.mutateLocked(m, nil) // no log attached: nothing is appended
		}
		if err != nil {
			return fmt.Errorf("sqlsheet: wal recovery: record %d (kind %q): %v", n, rec.Kind, err)
		}
		return nil
	})
	if err != nil {
		l.Close()
		return err
	}
	db.wal = l
	// A long recovery log means the previous process never compacted;
	// checkpoint now so the next restart replays one segment.
	if l.SizeBytes() > walAutoCheckpoint {
		return db.checkpointLocked()
	}
	return nil
}

// Close releases the write-ahead log (fsyncing per mode on the way out).
// It is a no-op when no log is attached; the in-memory database remains
// usable but further mutations are no longer logged — or, if the log had
// failed, still refused.
func (db *DB) Close() error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	if db.failed == nil {
		db.failed = db.wal.Err()
	}
	db.wal = nil
	return err
}

// WALEnabled reports whether a write-ahead log is attached.
func (db *DB) WALEnabled() bool {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return db.wal != nil
}

// WALCounters snapshots the log's cumulative statistics; ok is false when
// no log is attached.
func (db *DB) WALCounters() (WALCounters, bool) {
	db.stmtMu.RLock()
	l := db.wal
	db.stmtMu.RUnlock()
	if l == nil {
		return WALCounters{}, false
	}
	return l.Counters(), true
}

// Checkpoint compacts the write-ahead log: the full database state is
// written to a fresh segment and every older segment is deleted, bounding
// both disk usage and restart replay time. The swap is crash-atomic — temp
// file, fsync, rename, directory fsync, leading reset marker — so a kill at
// any point recovers either the old history or the checkpoint, never a mix
// (see wal.Log.Checkpoint).
//
// Every table, a materialized view's rows included, is a create record and a
// row-load record; every view and materialized view is then a CREATE FORCE
// statement, which registers the definition over what is already there
// without planning or running it. So the checkpoint is a log strict recovery
// always accepts, whatever the definitions read (each other in any order, a
// table dropped since, data their query now fails on), and everything
// round-trips exactly: a materialized view that was stale comes back with
// the same stale rows. Only its refresh bookmarks are not kept — its first
// REFRESH after a recovery is a full one.
func (db *DB) Checkpoint() error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if db.wal == nil {
		return fmt.Errorf("sqlsheet: wal not enabled")
	}
	return db.wal.Checkpoint(func(app func(kind byte, data []byte) error) error {
		for _, name := range db.cat.Names() {
			t, ok := db.cat.Get(name)
			if !ok {
				continue
			}
			if err := app(wal.KindCreate, wal.EncodeCreate(t.Name, t.Schema.Cols)); err != nil {
				return err
			}
			if len(t.Rows) > 0 {
				if err := app(wal.KindRows, wal.EncodeRows(t.Name, t.Rows)); err != nil {
					return err
				}
			}
		}
		for _, name := range append(db.cat.ViewNames(), db.cat.MatViewNames()...) {
			stmt := &sqlast.CreateView{Name: name, Force: true}
			if mv, ok := db.cat.MatViewDef(name); ok {
				stmt.Query, stmt.Materialized = mv.Query, true
			} else if v, ok := db.cat.ViewDef(name); ok {
				stmt.Query = v.Query
			}
			if err := app(wal.KindStmt, []byte(sqlast.FormatStatement(stmt))); err != nil {
				return err
			}
		}
		return nil
	})
}
