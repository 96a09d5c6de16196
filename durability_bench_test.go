package sqlsheet_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sqlsheet"
)

// BenchmarkWALAppend measures single-statement DML throughput under each
// durability mode: none (no fsync anywhere), group (ack after a coalesced
// post-apply fsync), always (fsync before apply). The spread between none
// and always is the price of per-statement durability; group sits between
// because the sync happens outside the statement lock.
func BenchmarkWALAppend(b *testing.B) {
	for _, mode := range []sqlsheet.SyncMode{sqlsheet.SyncNone, sqlsheet.SyncGroup, sqlsheet.SyncAlways} {
		b.Run(fmt.Sprintf("fsync=%s", mode), func(b *testing.B) {
			db := sqlsheet.Open()
			if err := db.EnableWAL(b.TempDir(), mode); err != nil {
				b.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (k INT, v INT)`)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*3))
			}
			b.StopTimer()
			db.Close()
		})
	}
	// No-WAL baseline for the same statement shape.
	b.Run("fsync=disabled", func(b *testing.B) {
		db := sqlsheet.Open()
		db.MustExec(`CREATE TABLE t (k INT, v INT)`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*3))
		}
	})
}

// BenchmarkWALAppendConcurrent is the group-commit case: 8 goroutines
// issuing single-row DML. Under always each statement pays its own fsync
// inside the statement lock; under group the first committer through syncs
// for everyone piled up behind it (see Counters.CoalescedSyncs), so
// throughput approaches one fsync per batch instead of one per statement.
func BenchmarkWALAppendConcurrent(b *testing.B) {
	for _, mode := range []sqlsheet.SyncMode{sqlsheet.SyncGroup, sqlsheet.SyncAlways} {
		b.Run(fmt.Sprintf("fsync=%s", mode), func(b *testing.B) {
			db := sqlsheet.Open()
			if err := db.EnableWAL(b.TempDir(), mode); err != nil {
				b.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (k INT, v INT)`)
			var seq atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*3))
				}
			})
			b.StopTimer()
			if c, ok := db.WALCounters(); ok {
				b.ReportMetric(float64(c.CoalescedSyncs)/float64(b.N), "coalesced/op")
			}
			db.Close()
		})
	}
}

// BenchmarkReaderDuringDML measures SELECT latency while one writer
// goroutine hammers single-row DML the whole time: readers pin per-statement
// images and take no lock, so the number is what a read costs under write
// pressure.
func BenchmarkReaderDuringDML(b *testing.B) {
	db := sqlsheet.Open()
	cfg := db.Options()
	cfg.Ablate.DisableResultCache = true // force every read onto the scan path
	db.Configure(cfg)
	db.MustExec(`CREATE TABLE f (k INT, v INT)`)
	for i := 0; i < 5000; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO f VALUES (%d, %d)`, i, i))
	}

	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; !stop.Load(); i++ {
			db.MustExec(fmt.Sprintf(`UPDATE f SET v = v + 1 WHERE k = %d`, i%5000))
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*), SUM(k) FROM f`); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stop.Store(true)
	<-writerDone
}
