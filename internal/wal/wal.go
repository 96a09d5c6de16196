// Package wal implements the write-ahead log behind sqlsheetd's crash
// safety: every mutating statement that applied is appended as a
// length-prefixed, CRC-checksummed record before any reader can see its
// effects and before it is acknowledged (see SyncMode for when the record is
// durable), and recovery replays the log so a restarted process comes back
// with exactly the state it acknowledged.
//
// Layout: the log is a directory of segment files (wal-00000001.log, ...).
// Records never span segments. The writer rotates to a new segment when the
// current one exceeds the segment threshold, and a checkpoint compacts the
// whole database state into a fresh segment and deletes every older one.
// The checkpoint swap is crash-atomic: the new segment is written to a
// temp file, fsynced, renamed into place (its first record a KindReset
// marker) and the directory fsynced before any old segment is removed;
// recovery starts at the newest such marker, so no crash window replays
// old history and checkpoint state together. Recovery replays segments in
// order and stops at the first torn or corrupted frame — under the
// append-before-ack discipline anything after a torn frame was never
// acknowledged.
//
// Frame format (little-endian):
//
//	[4 bytes payload length][4 bytes CRC-32 (IEEE) of payload][payload]
//
// The payload's first byte is the record kind; see Record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// SyncMode selects the durability/throughput trade-off.
type SyncMode int

const (
	// SyncGroup (the default) fsyncs after a statement is published, outside
	// the statement lock, coalescing concurrent commits into one fsync
	// (group commit): an acknowledgement still implies durability, but N
	// back-to-back writers share fsyncs instead of paying one each.
	SyncGroup SyncMode = iota
	// SyncAlways fsyncs inside Append, before the statement is published:
	// no reader ever sees a statement a crash could lose. Slowest, used by
	// the recovery tests where the kill window must never contain a
	// visible-but-unlogged statement.
	SyncAlways
	// SyncNone never fsyncs; durability is whatever the OS page cache
	// survives. Benchmark baseline and bulk-load mode.
	SyncNone
)

// ParseSyncMode converts a -fsync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "group", "":
		return SyncGroup, nil
	case "always", "on":
		return SyncAlways, nil
	case "none", "off":
		return SyncNone, nil
	}
	return SyncGroup, fmt.Errorf("wal: unknown fsync mode %q (want group, always or none)", s)
}

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "group"
}

// Record kinds. The payload after the kind byte is kind-specific text (see
// record.go for the codecs).
const (
	// KindStmt is a canonical SQL statement (sqlast.FormatStatement) to
	// re-execute on replay: all DDL/DML that arrived as SQL.
	KindStmt = 'S'
	// KindCreate is a programmatic CreateTable: table name + column specs.
	KindCreate = 'C'
	// KindRows is a programmatic row load (Insert, LoadCSV): table name
	// plus rows in the wire value encoding.
	KindRows = 'R'
	// KindAPB replays an InstallAPB call: the generator is deterministic
	// in its scale parameters, so the record stores only those.
	KindAPB = 'A'
	// KindReset marks the start of a checkpoint: replay drops all state
	// accumulated so far and rebuilds from the records that follow. It is
	// always the first record of a checkpoint segment, which is how
	// recovery identifies one.
	KindReset = 'X'
)

// Record is one replayed log entry.
type Record struct {
	Kind byte
	Data []byte // payload after the kind byte; valid until the next read
}

// Counters is a snapshot of the log's cumulative statistics (atomics
// underneath; safe to call concurrently with appends).
type Counters struct {
	Appends        int64 // records appended
	BytesWritten   int64 // payload + framing bytes appended
	Fsyncs         int64 // physical fsync calls issued
	CoalescedSyncs int64 // commits satisfied by another commit's fsync
	Checkpoints    int64 // checkpoint compactions performed
	Replayed       int64 // records replayed at open
	TruncatedTail  int64 // torn/corrupt frames dropped at recovery
	Segments       int64 // segment files currently on disk
	SizeBytes      int64 // bytes currently on disk across segments
	// Failed is the append or fsync error that poisoned the log (see
	// Log.Err); empty while the log is healthy.
	Failed string
}

// Pos identifies an appended record's end position for Commit: everything
// up to and including it must be durable before the statement is
// acknowledged.
type Pos struct {
	seg int64
	end int64
}

// Log is the append side of the write-ahead log. Appends are serialized by
// an internal mutex (the database additionally serializes writers with its
// exclusive statement lock); Commit may be called concurrently from many
// committing statements and coalesces their fsyncs.
type Log struct {
	dir      string
	mode     SyncMode
	segBytes int64

	mu       sync.Mutex // guards f, seg, off, rotation, checkpoint
	f        *os.File
	seg      int64 // current segment number
	off      int64 // current segment size
	segments []int64

	// syncMu guards the group-commit coverage state: the highest
	// (segment, offset) known to be durable.
	syncMu    sync.Mutex
	syncedSeg int64
	syncedOff int64

	appends        atomic.Int64
	bytesWritten   atomic.Int64
	fsyncs         atomic.Int64
	coalescedSyncs atomic.Int64
	checkpoints    atomic.Int64
	replayed       atomic.Int64
	truncatedTail  atomic.Int64

	// failed is the first error of an Append or of an fsync. It is sticky —
	// every later Append, Commit and Checkpoint returns it — for three
	// reasons. A short write leaves torn bytes in the segment that a later
	// append would land behind (replay stops at the first torn frame, losing
	// it). A retried fsync may report success for pages the kernel already
	// dropped. And the database appends a statement after applying it: a
	// statement whose append failed for any reason, a segment that would not
	// open included, is in memory and not in the log, and the only way that
	// stays one loudly failed statement is that nothing is ever logged, or
	// published, on top of it.
	failed atomic.Pointer[error]
}

// Err returns the append or fsync error that poisoned the log, nil while it
// is healthy. A poisoned log accepts nothing more; what it held before the
// error still replays.
func (l *Log) Err() error {
	if p := l.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records err as the log's sticky error unless one is already set, and
// returns the one that is.
func (l *Log) fail(err error) error {
	l.failed.CompareAndSwap(nil, &err)
	return l.Err()
}

const defaultSegBytes = 16 << 20

// Open opens (creating if needed) the log directory. Existing segments are
// left untouched for Replay; new appends go to a fresh segment numbered
// after the newest existing one, so a torn tail in an old segment is never
// appended over. segBytes <= 0 uses the 16 MiB default.
//
// Open also finishes any checkpoint a crash interrupted: leftover temp
// files (a checkpoint that never became durable) are removed, and segments
// older than the newest completed checkpoint (durable before the crash cut
// their removal short) are deleted — replay would skip them anyway, since
// replaying them and the checkpoint together would duplicate state.
func Open(dir string, mode SyncMode, segBytes int64) (*Log, error) {
	if segBytes <= 0 {
		segBytes = defaultSegBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %v", err)
	}
	if err := removeTempFiles(dir); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, mode: mode, segBytes: segBytes, segments: segs}
	if err := l.pruneSuperseded(); err != nil {
		return nil, err
	}
	if n := len(l.segments); n > 0 {
		l.seg = l.segments[n-1]
	}
	return l, nil
}

// removeTempFiles deletes in-progress checkpoint files a crash left behind;
// they were never renamed, so they were never authoritative.
func removeTempFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, tmpSuffix) {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("wal: %v", err)
			}
		}
	}
	return nil
}

// pruneSuperseded removes segments older than the newest checkpoint
// segment: a crash between a checkpoint's rename and the removal of the
// history it replaces leaves them behind, and replaying them would
// duplicate the checkpointed state. Called from Open, before any appends.
func (l *Log) pruneSuperseded() error {
	start := l.replayStart()
	if start == 0 {
		return nil
	}
	for _, seg := range l.segments[:start] {
		if err := os.Remove(filepath.Join(l.dir, segName(seg))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: truncate: %v", err)
		}
	}
	l.segments = append([]int64(nil), l.segments[start:]...)
	return nil
}

// replayStart returns the index into l.segments where replay must begin:
// the newest segment that starts with a checkpoint's KindReset marker, or
// 0 when no checkpoint exists.
func (l *Log) replayStart() int {
	for i := len(l.segments) - 1; i > 0; i-- {
		if startsWithReset(filepath.Join(l.dir, segName(l.segments[i]))) {
			return i
		}
	}
	return 0
}

// startsWithReset reports whether the segment's first frame is an intact
// KindReset record — the marker a completed checkpoint begins with. The
// rename protocol means a visible checkpoint segment is always durable, so
// an unreadable or torn first frame simply means "not a checkpoint".
func startsWithReset(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	// A reset marker is a bare kind byte; anything bigger (including a
	// garbage length demanding a huge buffer) is some other record.
	if n != 1 {
		return false
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(f, buf); err != nil {
		return false
	}
	return crc32.ChecksumIEEE(buf) == crc && buf[0] == KindReset
}

func segName(seg int64) string { return fmt.Sprintf("wal-%08d.log", seg) }

func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %v", err)
	}
	var segs []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// Replay streams every intact record to fn, starting at the newest
// checkpoint segment (identified by its leading KindReset marker) — any
// older segment holds history the checkpoint already compacted, and
// replaying both would duplicate state. With no checkpoint, every segment
// replays in order. A torn or corrupted frame ends replay of the log (not
// just the segment): everything after it postdates the corruption and
// cannot be trusted to apply against the right state. fn errors abort and
// are returned; replay never fails on corruption — it just stops.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]int64(nil), l.segments[l.replayStart():]...)
	l.mu.Unlock()
	for _, seg := range segs {
		ok, err := l.replaySegment(filepath.Join(l.dir, segName(seg)), fn)
		if err != nil {
			return err
		}
		if !ok {
			return nil // corruption: stop the whole replay
		}
	}
	return nil
}

// replaySegment replays one segment file. ok=false reports a torn or
// corrupted tail (replay must stop); err carries fn failures only.
func (l *Log) replaySegment(path string, fn func(Record) error) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return true, nil
		}
		return false, fmt.Errorf("wal: %v", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, fmt.Errorf("wal: %v", err)
	}
	remaining := fi.Size()
	var hdr [8]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return true, nil // clean end of segment
			}
			l.truncatedTail.Add(1)
			return false, nil // torn header
		}
		remaining -= int64(len(hdr))
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// A length exceeding what the file still holds is necessarily torn
		// or corrupt; checking before allocating keeps a garbage 4-byte
		// prefix from demanding a gigabyte buffer.
		if n == 0 || n > maxRecordBytes || int64(n) > remaining {
			l.truncatedTail.Add(1)
			return false, nil
		}
		remaining -= int64(n)
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			l.truncatedTail.Add(1)
			return false, nil // torn payload
		}
		if crc32.ChecksumIEEE(buf) != crc {
			l.truncatedTail.Add(1)
			return false, nil // corrupted payload
		}
		l.replayed.Add(1)
		if err := fn(Record{Kind: buf[0], Data: buf[1:]}); err != nil {
			return false, err
		}
	}
}

// maxRecordBytes bounds a single record frame; anything larger in a header
// is treated as corruption. Generous: a record is one statement or one
// bulk-load batch.
const maxRecordBytes = 1 << 30

// Append frames and writes one record, rotating segments as needed. Under
// SyncAlways the write is durable when Append returns; under SyncGroup the
// caller must Commit the returned position before acknowledging the
// statement; under SyncNone the position is meaningless and Commit is a
// no-op. Any error poisons the log (see Err).
func (l *Log) Append(kind byte, data []byte) (Pos, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Err(); err != nil {
		return Pos{}, err
	}
	if l.f == nil || l.off >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			return Pos{}, l.fail(err)
		}
	}
	payload := make([]byte, 0, 1+len(data))
	payload = append(payload, kind)
	payload = append(payload, data...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return Pos{}, l.fail(fmt.Errorf("wal: append: %v", err))
	}
	if _, err := l.f.Write(payload); err != nil {
		return Pos{}, l.fail(fmt.Errorf("wal: append: %v", err))
	}
	l.off += int64(len(hdr) + len(payload))
	l.appends.Add(1)
	l.bytesWritten.Add(int64(len(hdr) + len(payload)))
	pos := Pos{seg: l.seg, end: l.off}
	if l.mode == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return Pos{}, l.fail(fmt.Errorf("wal: fsync: %v", err))
		}
		l.fsyncs.Add(1)
		l.markSynced(pos)
	}
	return pos, nil
}

// rotateLocked closes the current segment (fsyncing it unless SyncNone, so
// group commits against the old segment are already durable) and opens the
// next one. Called with l.mu held.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if l.mode != SyncNone {
			if err := l.f.Sync(); err != nil {
				return fmt.Errorf("wal: fsync: %v", err)
			}
			l.fsyncs.Add(1)
			l.markSynced(Pos{seg: l.seg, end: l.off})
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close: %v", err)
		}
		l.f = nil
	}
	l.seg++
	f, err := os.OpenFile(filepath.Join(l.dir, segName(l.seg)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	l.f = f
	l.off = 0
	l.segments = append(l.segments, l.seg)
	return nil
}

// markSynced advances the durable high-water mark.
func (l *Log) markSynced(pos Pos) {
	l.syncMu.Lock()
	if pos.seg > l.syncedSeg || (pos.seg == l.syncedSeg && pos.end > l.syncedOff) {
		l.syncedSeg, l.syncedOff = pos.seg, pos.end
	}
	l.syncMu.Unlock()
}

// Commit makes everything up to pos durable. Under SyncGroup it is called
// after the statement applied and outside the statement lock, so concurrent
// committers pile up here: the first through fsyncs the file (covering
// everyone appended so far), the rest observe coverage and return without
// touching the disk (counted as coalesced).
//
// Lock order is l.mu before l.syncMu, everywhere: rotation, checkpoint and
// Close hold l.mu and advance the durable mark via markSynced (which takes
// syncMu), so Commit must never acquire l.mu while holding syncMu. It
// snapshots the live file state first, then does all coverage bookkeeping
// and the fsync under syncMu alone — appenders are still never blocked by
// the disk.
func (l *Log) Commit(pos Pos) error {
	if l.mode != SyncGroup || pos.seg == 0 {
		return l.Err()
	}
	l.mu.Lock()
	f, seg, off := l.f, l.seg, l.off
	l.mu.Unlock()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.Err(); err != nil {
		return err
	}
	if pos.seg < l.syncedSeg || (pos.seg == l.syncedSeg && pos.end <= l.syncedOff) {
		l.coalescedSyncs.Add(1)
		return nil
	}
	if f == nil {
		// The log was closed between the append and this commit. Close
		// fsyncs and advances the durable mark on the way out, so an
		// uncovered pos here means pos was never appended to this log;
		// either way there is nothing left to sync.
		return nil
	}
	if seg < pos.seg {
		return fmt.Errorf("wal: commit past end of log")
	}
	// The snapshotted file cannot be closed under us: rotation, checkpoint
	// and Close all advance the durable mark — which needs syncMu, held
	// here — before closing the file they fsynced, and an already-closed
	// file means pos was covered above.
	if err := f.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: fsync: %v", err))
	}
	l.fsyncs.Add(1)
	if seg > l.syncedSeg || (seg == l.syncedSeg && off > l.syncedOff) {
		l.syncedSeg, l.syncedOff = seg, off
	}
	return nil
}

// Checkpoint compacts the database into a fresh segment: write streams the
// full state as records through app, and every older segment is deleted.
// The caller must hold the exclusive statement lock so the streamed state
// is a statement boundary.
//
// The swap is crash-atomic. The checkpoint is written to a temporary file
// (invisible to recovery), fsynced, renamed to its final segment name, and
// the directory is fsynced — only then are the old segments removed. Its
// first record is a KindReset marker, which is how recovery recognizes a
// checkpoint segment and starts replay there: a crash at any point leaves
// either the old history fully intact (rename not yet durable; the torn
// temp file is ignored and cleaned up at the next Open) or the checkpoint
// authoritative (old segments — whether still present, partially deleted,
// or gone — are skipped by replay). There is no window where old history
// and checkpoint records both replay, which would duplicate every row.
func (l *Log) Checkpoint(write func(app func(kind byte, data []byte) error) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.Err(); err != nil {
		return err
	}
	old := append([]int64(nil), l.segments...)
	oldF := l.f
	seg := l.seg + 1
	path := filepath.Join(l.dir, segName(seg))
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %v", err)
	}
	abort := func() {
		f.Close()
		os.Remove(tmp)
	}
	var off int64
	app := func(kind byte, data []byte) error {
		payload := make([]byte, 0, 1+len(data))
		payload = append(payload, kind)
		payload = append(payload, data...)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := f.Write(hdr[:]); err != nil {
			return fmt.Errorf("wal: checkpoint: %v", err)
		}
		if _, err := f.Write(payload); err != nil {
			return fmt.Errorf("wal: checkpoint: %v", err)
		}
		off += int64(len(hdr) + len(payload))
		l.appends.Add(1)
		l.bytesWritten.Add(int64(len(hdr) + len(payload)))
		return nil
	}
	if err := app(KindReset, nil); err != nil {
		abort()
		return err
	}
	if err := write(app); err != nil {
		abort()
		return err
	}
	// The checkpoint must be durable before it becomes visible under its
	// final name, whatever the sync mode.
	if err := f.Sync(); err != nil {
		abort()
		return fmt.Errorf("wal: fsync: %v", err)
	}
	l.fsyncs.Add(1)
	if err := os.Rename(tmp, path); err != nil {
		abort()
		return fmt.Errorf("wal: checkpoint: %v", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The rename is durable: the checkpoint is now the authoritative state
	// and subsequent appends go to its open handle. Advance the durable
	// mark before closing the old file — an in-flight group commit against
	// it holds syncMu while fsyncing, so markSynced also orders this close
	// after that fsync completes.
	l.f, l.seg, l.off = f, seg, off
	l.segments = []int64{seg}
	l.markSynced(Pos{seg: seg, end: off})
	if oldF != nil {
		oldF.Close()
	}
	for _, o := range old {
		if err := os.Remove(filepath.Join(l.dir, segName(o))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: truncate: %v", err)
		}
	}
	l.checkpoints.Add(1)
	return nil
}

// tmpSuffix marks an in-progress checkpoint segment. The suffix keeps it
// out of listSegments; Open removes leftovers from a crashed checkpoint.
const tmpSuffix = ".tmp"

// syncDir fsyncs a directory, making a just-completed rename durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: %v", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %v", err)
	}
	return nil
}

// SizeBytes returns the on-disk size of all segments (sloppy: the current
// segment's size is tracked, older ones are stat'ed).
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, seg := range l.segments {
		// l.off only tracks a segment this process has open; right after
		// Open, l.seg aliases the newest pre-existing segment with off 0,
		// which must be stat'ed like the rest.
		if seg == l.seg && l.f != nil {
			n += l.off
			continue
		}
		if fi, err := os.Stat(filepath.Join(l.dir, segName(seg))); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// Counters snapshots the cumulative statistics.
func (l *Log) Counters() Counters {
	c := Counters{
		Appends:        l.appends.Load(),
		BytesWritten:   l.bytesWritten.Load(),
		Fsyncs:         l.fsyncs.Load(),
		CoalescedSyncs: l.coalescedSyncs.Load(),
		Checkpoints:    l.checkpoints.Load(),
		Replayed:       l.replayed.Load(),
		TruncatedTail:  l.truncatedTail.Load(),
	}
	if err := l.Err(); err != nil {
		c.Failed = err.Error()
	}
	l.mu.Lock()
	c.Segments = int64(len(l.segments))
	l.mu.Unlock()
	c.SizeBytes = l.SizeBytes()
	return c
}

// Mode returns the log's sync mode.
func (l *Log) Mode() SyncMode { return l.mode }

// Close flushes and closes the current segment. The durable mark is
// advanced before the file closes, so an in-flight Commit racing Close
// observes coverage rather than fsyncing a closed file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if l.mode != SyncNone {
		if err := l.f.Sync(); err != nil {
			return l.fail(fmt.Errorf("wal: fsync: %v", err))
		}
		l.fsyncs.Add(1)
		l.markSynced(Pos{seg: l.seg, end: l.off})
	}
	err := l.f.Close()
	l.f = nil
	return err
}
