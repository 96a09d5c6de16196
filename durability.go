package sqlsheet

import (
	"context"
	"fmt"

	"sqlsheet/internal/apb"
	"sqlsheet/internal/parser"
	"sqlsheet/internal/sqlast"
	"sqlsheet/internal/types"
	"sqlsheet/internal/wal"
)

// SyncMode re-exports the write-ahead log's durability modes.
type SyncMode = wal.SyncMode

// Sync modes for EnableWAL: SyncGroup coalesces post-apply fsyncs across
// concurrent committers (the default), SyncAlways fsyncs before every
// statement applies, SyncNone never fsyncs.
const (
	SyncGroup  = wal.SyncGroup
	SyncAlways = wal.SyncAlways
	SyncNone   = wal.SyncNone
)

// ParseSyncMode converts a -fsync flag value ("group", "always", "none").
func ParseSyncMode(s string) (SyncMode, error) { return wal.ParseSyncMode(s) }

// WALCounters re-exports the log's cumulative statistics for monitoring.
type WALCounters = wal.Counters

// walDefaultAutoCheckpoint compacts the log once it exceeds 64 MiB.
const walDefaultAutoCheckpoint int64 = 64 << 20

// EnableWAL attaches a write-ahead log in dir, first replaying any existing
// log so the database recovers the state it last acknowledged: statements
// re-execute in log order (re-failing deterministically where the original
// failed, reproducing partial-application states bit for bit), programmatic
// loads re-apply their recorded rows, and APB installs regenerate from
// their recorded scale. Call it on a freshly opened DB before sharing it
// between goroutines; subsequent mutations are logged before they apply and
// acknowledged only after their records are durable per mode.
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
	db.walReplay = true
	err = l.Replay(func(rec wal.Record) error {
		db.applyWALRecord(s, rec)
		return nil
	})
	db.walReplay = false
	if err != nil {
		l.Close()
		return err
	}
	db.cat.PublishAll()
	db.wal = l
	if db.walAutoCP <= 0 {
		db.walAutoCP = walDefaultAutoCheckpoint
	}
	// A long recovery log means the previous process never compacted;
	// checkpoint now so the next restart replays one segment.
	if l.SizeBytes() > db.walAutoCP {
		return db.checkpointLocked()
	}
	return nil
}

// Close releases the write-ahead log (fsyncing per mode on the way out).
// It is a no-op when no log is attached; the in-memory database remains
// usable but further mutations are no longer logged.
func (db *DB) Close() error {
	db.stmtMu.Lock()
	defer db.stmtMu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
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

// applyWALRecord replays one log record against the catalog. Replay is
// tolerant: undecodable or re-failing records leave exactly the state the
// original failure left (logging happens before applying, so a failed
// statement is in the log and re-fails the same way), and never abort
// recovery.
func (db *DB) applyWALRecord(s *session, rec wal.Record) {
	switch rec.Kind {
	case wal.KindReset:
		// A checkpoint's leading marker: the records that follow rebuild
		// the full state, so everything replayed so far is dropped.
		// Replay already starts at the newest checkpoint segment, and
		// recovery runs on a fresh DB, so normally there is nothing to
		// drop — this keeps the record's meaning honest regardless.
		for _, name := range db.cat.MatViewNames() {
			db.cat.DropObject(name)
		}
		for _, name := range db.cat.ViewNames() {
			db.cat.DropObject(name)
		}
		for _, name := range db.cat.Names() {
			db.cat.Drop(name)
		}
	case wal.KindStmt:
		stmts, err := parser.Parse(string(rec.Data))
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			if _, ok := stmt.(*sqlast.SelectStmt); ok {
				continue
			}
			ex := db.newExecutor(context.Background(), s, nil)
			_, _ = ex.ExecStatement(stmt)
			db.cat.PublishAll()
		}
	case wal.KindCreate:
		name, cols, err := wal.DecodeCreate(rec.Data)
		if err != nil {
			return
		}
		_, _ = db.cat.Create(name, types.NewSchema(cols...))
	case wal.KindRows:
		table, rows, err := wal.DecodeRows(rec.Data)
		if err != nil {
			return
		}
		t, ok := db.cat.Get(table)
		if !ok {
			return
		}
		_ = t.Insert(rows...) // re-fails as the original did
		db.cat.PublishAll()
	case wal.KindAPB:
		p, err := wal.DecodeAPB(rec.Data)
		if err != nil {
			return
		}
		d := apb.Generate(apb.Config{
			Seed:          p.Seed,
			ProductFanout: p.ProductFanout,
			Channels:      p.Channels,
			Customers:     p.Customers,
			Years:         p.Years,
			Density:       p.Density,
		})
		_ = d.Install(db.cat)
		db.cat.PublishAll()
	}
}

// logRecord appends one record to the write-ahead log; it is a no-op when
// no log is attached or recovery is replaying. The caller holds the
// exclusive statement lock.
func (db *DB) logRecord(kind byte, data []byte) (wal.Pos, error) {
	if db.wal == nil || db.walReplay {
		return wal.Pos{}, nil
	}
	return db.wal.Append(kind, data)
}

// walCommit makes everything up to pos durable (group commit); called after
// the statement lock is released so fsyncs coalesce across writers instead
// of serializing them. Running outside the lock means it can race Close,
// so the log pointer is loaded under the shared lock; if Close won the
// race the statement's record was fsynced on the way out (Log.Commit also
// treats an already-closed log as covered), so nil is correct, not lost
// durability.
func (db *DB) walCommit(pos wal.Pos) error {
	db.stmtMu.RLock()
	l := db.wal
	db.stmtMu.RUnlock()
	if l == nil {
		return nil
	}
	return l.Commit(pos)
}

// maybeCheckpointLocked compacts the log when it has outgrown the
// auto-checkpoint threshold; the caller holds the exclusive statement lock.
func (db *DB) maybeCheckpointLocked() {
	if db.wal == nil || db.walReplay || db.walAutoCP <= 0 {
		return
	}
	if db.wal.SizeBytes() > db.walAutoCP {
		_ = db.checkpointLocked()
	}
}

// Checkpoint compacts the write-ahead log: the full database state is
// written to a fresh segment as create/row-load records (views and
// materialized views as their defining statements) and every older segment
// is deleted, bounding both disk usage and restart replay time. The swap
// is crash-atomic — temp file, fsync, rename, directory fsync, leading
// reset marker — so a kill at any point recovers either the old history or
// the checkpoint, never a mix (see wal.Log.Checkpoint).
//
// A materialized view is checkpointed by definition, so recovery recomputes
// it from the restored base tables: an MV that was stale (unREFRESHed) at
// checkpoint time comes back fresh. Base tables and plain views round-trip
// exactly.
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
			if _, isMV := db.cat.MatViewDef(name); isMV {
				continue // restored via its CREATE MATERIALIZED VIEW below
			}
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
		// Plain views before materialized ones: MV definitions may read
		// views, and both may read only base tables, which are already in.
		for _, name := range db.cat.ViewNames() {
			v, ok := db.cat.ViewDef(name)
			if !ok {
				continue
			}
			stmt := &sqlast.CreateView{Name: v.Name, Query: v.Query}
			if err := app(wal.KindStmt, []byte(sqlast.FormatStatement(stmt))); err != nil {
				return err
			}
		}
		for _, name := range db.cat.MatViewNames() {
			mv, ok := db.cat.MatViewDef(name)
			if !ok {
				continue
			}
			stmt := &sqlast.CreateView{Name: mv.Name, Query: mv.Query, Materialized: true}
			if err := app(wal.KindStmt, []byte(sqlast.FormatStatement(stmt))); err != nil {
				return err
			}
		}
		return nil
	})
}
