package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sqlsheet/internal/types"
)

func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var recs []Record
	err := l.Replay(func(r Record) error {
		recs = append(recs, Record{Kind: r.Kind, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)", "UPDATE t SET a = 2"}
	var last Pos
	for _, p := range payloads {
		pos, err := l.Append(KindStmt, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		last = pos
	}
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	if len(recs) != len(payloads) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(payloads))
	}
	for i, r := range recs {
		if r.Kind != KindStmt || string(r.Data) != payloads[i] {
			t.Fatalf("record %d = %c %q, want S %q", i, r.Kind, r.Data, payloads[i])
		}
	}
}

func TestReplayStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindStmt, []byte("first")); err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append(KindStmt, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate the segment mid-way through the second frame.
	seg := filepath.Join(dir, segName(pos.seg))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	if len(recs) != 1 || string(recs[0].Data) != "first" {
		t.Fatalf("replayed %v, want just the first record", recs)
	}
	if l2.Counters().TruncatedTail != 1 {
		t.Fatalf("TruncatedTail = %d, want 1", l2.Counters().TruncatedTail)
	}
}

func TestReplayStopsAtCorruptedPayload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindStmt, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append(KindStmt, []byte("corrupt-me"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindStmt, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit of the middle record.
	seg := filepath.Join(dir, segName(pos.seg))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("corrupt-me"))
	data[i] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	// Everything from the corruption on is dropped, including the intact
	// record after it (it postdates the corruption).
	if len(recs) != 1 || string(recs[0].Data) != "keep" {
		t.Fatalf("replayed %d records, want 1 (%v)", len(recs), recs)
	}
}

func TestRotationAndNewSegmentPerOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 64) // tiny segments force rotation
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(KindStmt, []byte("statement payload that exceeds the threshold")); err != nil {
			t.Fatal(err)
		}
	}
	c := l.Counters()
	if c.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have produced several", c.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay sees all ten records across segments, in order.
	l2, err := Open(dir, SyncNone, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l2)); got != 10 {
		t.Fatalf("replayed %d records, want 10", got)
	}
	// New appends land in a fresh segment, never after an old tail.
	pos, err := l2.Append(KindStmt, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if pos.seg <= c.Segments {
		t.Fatalf("append went to segment %d, want a fresh one", pos.seg)
	}
}

func TestCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(KindStmt, []byte("old history")); err != nil {
			t.Fatal(err)
		}
	}
	err = l.Checkpoint(func(app func(kind byte, data []byte) error) error {
		return app(KindStmt, []byte("compacted state"))
	})
	if err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Segments != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", c.Segments)
	}
	if c.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", c.Checkpoints)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	if len(recs) != 2 || recs[0].Kind != KindReset || string(recs[1].Data) != "compacted state" {
		t.Fatalf("replay after checkpoint = %v, want reset marker + compacted record", recs)
	}
}

// TestCheckpointCrashBeforeRename simulates a crash while a checkpoint was
// still streaming into its temp file: the temp file must be ignored by
// recovery, removed at Open, and the old history must replay intact.
func TestCheckpointCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(KindStmt, []byte("history")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn checkpoint that never reached its rename.
	tmp := filepath.Join(dir, segName(2)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial checkpoint frames"), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	if len(recs) != 3 || string(recs[0].Data) != "history" {
		t.Fatalf("replayed %v, want the 3 history records", recs)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover checkpoint temp file survived Open: %v", err)
	}
}

// TestCheckpointCrashBeforeTruncate simulates a crash after the checkpoint
// segment became durable but before the old segments were removed: replay
// must start at the checkpoint and never see the old history (which would
// duplicate every checkpointed row), and Open must prune the stale files.
func TestCheckpointCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(KindStmt, []byte("old history")); err != nil {
			t.Fatal(err)
		}
	}
	oldSeg := filepath.Join(dir, segName(1))
	oldBytes, err := os.ReadFile(oldSeg)
	if err != nil {
		t.Fatal(err)
	}
	err = l.Checkpoint(func(app func(kind byte, data []byte) error) error {
		return app(KindStmt, []byte("compacted state"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-checkpoint segment, as if the crash hit mid-removal.
	if err := os.WriteFile(oldSeg, oldBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, l2)
	if len(recs) != 2 || recs[0].Kind != KindReset || string(recs[1].Data) != "compacted state" {
		t.Fatalf("replayed %v, want only the checkpoint records", recs)
	}
	if _, err := os.Stat(oldSeg); !os.IsNotExist(err) {
		t.Fatalf("superseded segment survived Open: %v", err)
	}
}

// TestCommitConcurrentWithRotation drives group commits against appenders
// that rotate segments constantly; the old lock order (Commit holding
// syncMu while acquiring mu, rotation holding mu while acquiring syncMu)
// deadlocked this in two goroutines.
func TestCommitConcurrentWithRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup, 256) // tiny segments: rotate every few appends
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pos, err := l.Append(KindStmt, []byte("a payload long enough to force frequent segment rotation"))
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.Commit(pos); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, SyncGroup, 256)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(collect(t, l2)); got != 200 {
		t.Fatalf("replayed %d records, want 200", got)
	}
}

// TestCommitAfterCloseIsCleanNoop covers the race between DB.mutate's commit
// (issued after the statement lock is released) and DB.Close: Close
// fsyncs and advances the durable mark, so a commit that arrives after it
// finds its position covered and succeeds without touching the closed file.
func TestCommitAfterCloseIsCleanNoop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append(KindStmt, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(pos); err != nil {
		t.Fatalf("commit after close = %v, want clean no-op", err)
	}
}

// TestSizeBytesCountsPreexistingSegments: right after Open, before any
// append, the newest on-disk segment shares its number with l.seg but is
// not open in this process — SizeBytes must stat it, not report zero.
// TestFailedWriteOrSyncPoisonsTheLog: after a write or fsync error the log
// accepts nothing more. Were the next append allowed, it would land behind
// the torn bytes of the failed one, where replay never reaches it; a retried
// fsync may report success for pages the kernel already dropped. What the
// log held before the error still replays.
func TestFailedWriteOrSyncPoisonsTheLog(t *testing.T) {
	for _, mode := range []SyncMode{SyncGroup, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			good, err := l.Append(KindStmt, []byte("acknowledged"))
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(good); err != nil {
				t.Fatal(err)
			}
			// Swap the segment for a handle that rejects writes and fsyncs
			// alike: the same file, opened read-only.
			healthy := l.f
			ro, err := os.Open(healthy.Name())
			if err != nil {
				t.Fatal(err)
			}
			defer ro.Close()
			l.f = ro
			_, first := l.Append(KindStmt, []byte("torn"))
			if first == nil {
				t.Fatal("append to a read-only segment succeeded")
			}
			// The disk "recovers"; the log must not.
			l.f = healthy
			if _, err := l.Append(KindStmt, []byte("after")); err == nil || err.Error() != first.Error() {
				t.Errorf("append after a failed append = %v, want the first error %v", err, first)
			}
			if err := l.Commit(good); err == nil || err.Error() != first.Error() {
				t.Errorf("commit after a failed append = %v, want the first error %v", err, first)
			}
			if err := l.Checkpoint(func(func(byte, []byte) error) error { return nil }); err == nil {
				t.Error("checkpoint of a poisoned log succeeded")
			}
			if c := l.Counters(); c.Failed != first.Error() || c.Appends != 1 {
				t.Errorf("counters %+v, want Failed = %q and the one good append", c, first)
			}
			healthy.Close()

			l2, err := Open(dir, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if recs := collect(t, l2); len(recs) != 1 || string(recs[0].Data) != "acknowledged" {
				t.Errorf("replayed %d records %v, want the acknowledged one", len(recs), recs)
			}
		})
	}
}

// TestFailedCommitPoisonsTheLog: the group-commit fsync is the other place
// the disk can say no.
func TestFailedCommitPoisonsTheLog(t *testing.T) {
	l, err := Open(t.TempDir(), SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := l.Append(KindStmt, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	healthy := l.f
	defer healthy.Close()
	ro, err := os.Open(healthy.Name())
	if err != nil {
		t.Fatal(err)
	}
	ro.Close() // fsync of a closed handle fails
	l.f = ro
	first := l.Commit(pos)
	if first == nil {
		t.Fatal("commit through a closed handle succeeded")
	}
	l.f = healthy
	if err := l.Commit(pos); err == nil {
		t.Error("commit retried after a failed fsync succeeded")
	}
	if _, err := l.Append(KindStmt, []byte("y")); err == nil {
		t.Error("append after a failed fsync succeeded")
	}
}

func TestSizeBytesCountsPreexistingSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindStmt, []byte("some durable history")); err != nil {
		t.Fatal(err)
	}
	want := l.SizeBytes()
	if want == 0 {
		t.Fatal("SizeBytes = 0 after append")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := l2.SizeBytes(); got != want {
		t.Fatalf("SizeBytes after reopen = %d, want %d", got, want)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, SyncGroup, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last Pos
	for i := 0; i < 4; i++ {
		pos, err := l.Append(KindStmt, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		last = pos
	}
	// Committing the last position first covers the earlier three.
	if err := l.Commit(last); err != nil {
		t.Fatal(err)
	}
	before := l.Counters().Fsyncs
	if err := l.Commit(Pos{seg: last.seg, end: 1}); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Fsyncs != before {
		t.Fatalf("covered commit issued an fsync (%d -> %d)", before, c.Fsyncs)
	}
	if c.CoalescedSyncs != 1 {
		t.Fatalf("coalesced = %d, want 1", c.CoalescedSyncs)
	}
}

func TestRecordCodecs(t *testing.T) {
	name, cols, err := DecodeCreate(EncodeCreate("T1", []types.Column{
		{Name: "a", Kind: types.KindInt},
		{Name: "weird\tname", Kind: types.KindString},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if name != "T1" || len(cols) != 2 || cols[1].Name != "weird\tname" || cols[1].Kind != types.KindString {
		t.Fatalf("create round-trip = %q %v", name, cols)
	}

	rows := []types.Row{
		{types.NewInt(1), types.NewString("tab\tand\nnewline"), types.Null},
		{types.NewFloat(3.25), types.NewBool(true), types.NewString("")},
	}
	table, got, err := DecodeRows(EncodeRows("t", rows))
	if err != nil {
		t.Fatal(err)
	}
	if table != "t" || len(got) != 2 {
		t.Fatalf("rows round-trip = %q %v", table, got)
	}
	for i := range rows {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("row %d col %d = %v, want %v", i, j, got[i][j], rows[i][j])
			}
		}
	}

	p, err := DecodeAPB(EncodeAPB(APBParams{Seed: 7, ProductFanout: []int{2, 3}, Channels: 4, Customers: 5, Years: 2, Density: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.ProductFanout) != 2 || p.ProductFanout[1] != 3 || p.Density != 0.1 {
		t.Fatalf("apb round-trip = %+v", p)
	}
}

// FuzzWALReplay feeds arbitrary bytes as a segment file: replay must never
// panic, never return an error for corruption (only stop), and must accept
// its own valid prefix.
func FuzzWALReplay(f *testing.F) {
	// Seed with a valid log, its truncations, and a bit-flipped variant.
	dir := f.TempDir()
	l, err := Open(dir, SyncNone, 0)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(KindStmt, []byte("CREATE TABLE t (a INT)"))
	l.Append(KindRows, EncodeRows("t", []types.Row{{types.NewInt(1)}}))
	l.Append(KindCreate, EncodeCreate("u", []types.Column{{Name: "x", Kind: types.KindFloat}}))
	l.Close()
	valid, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{1, 7, 9, len(valid) / 2, len(valid) - 1} {
		if cut < len(valid) {
			f.Add(valid[:cut])
		}
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// A checkpoint segment: leading reset marker, then compacted state.
	cpDir := f.TempDir()
	cl, err := Open(cpDir, SyncNone, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := cl.Checkpoint(func(app func(kind byte, data []byte) error) error {
		return app(KindStmt, []byte("CREATE TABLE t (a INT)"))
	}); err != nil {
		f.Fatal(err)
	}
	cl.Close()
	if cp, err := os.ReadFile(filepath.Join(cpDir, segName(1))); err == nil {
		f.Add(cp)
		f.Add(cp[:9]) // torn mid-reset-marker
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, SyncNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := l.Replay(func(r Record) error {
			// Decoders must tolerate arbitrary CRC-valid payloads too.
			switch r.Kind {
			case KindCreate:
				DecodeCreate(r.Data)
			case KindRows:
				DecodeRows(r.Data)
			case KindAPB:
				DecodeAPB(r.Data)
			}
			n++
			return nil
		}); err != nil {
			t.Fatalf("replay returned error for corrupt input: %v", err)
		}
		_ = n
	})
}
