package server

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in milliseconds (+Inf is
// implicit as the last counter).
var latencyBuckets = []float64{0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}

// Metrics holds the server's cumulative counters. All fields are atomics so
// the serving path updates them without locks and the /metrics handler reads
// a consistent-enough snapshot.
type Metrics struct {
	ConnectionsTotal  atomic.Int64
	ConnectionsActive atomic.Int64
	QueriesTotal      atomic.Int64
	InFlight          atomic.Int64
	Queued            atomic.Int64
	AdmissionRejected atomic.Int64
	QueryTimeouts     atomic.Int64
	QueriesCanceled   atomic.Int64
	ParseErrors       atomic.Int64
	ExecErrors        atomic.Int64
	ProtocolErrors    atomic.Int64

	latCounts [10]atomic.Int64 // one per bucket + +Inf
	latCount  atomic.Int64
	latSumUS  atomic.Int64 // microseconds, to keep the sum integral
}

// observe records one query latency in the histogram.
func (m *Metrics) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBuckets) && ms > latencyBuckets[i] {
		i++
	}
	m.latCounts[i].Add(1)
	m.latCount.Add(1)
	m.latSumUS.Add(d.Microseconds())
}

// histBucket is one cumulative histogram bucket in the /metrics snapshot.
type histBucket struct {
	LeMS  float64 `json:"le_ms"` // upper bound; 0 encodes +Inf
	Count int64   `json:"count"` // cumulative count ≤ LeMS
}

// Snapshot is the JSON shape served at /metrics.
type Snapshot struct {
	ConnectionsTotal  int64 `json:"connections_total"`
	ConnectionsActive int64 `json:"connections_active"`
	QueriesTotal      int64 `json:"queries_total"`
	InFlight          int64 `json:"in_flight"`
	Queued            int64 `json:"queued"`
	AdmissionRejected int64 `json:"admission_rejected"`
	QueryTimeouts     int64 `json:"query_timeouts"`
	QueriesCanceled   int64 `json:"queries_canceled"`
	ParseErrors       int64 `json:"parse_errors"`
	ExecErrors        int64 `json:"exec_errors"`
	ProtocolErrors    int64 `json:"protocol_errors"`

	// WAL carries the write-ahead log's durability counters when one is
	// enabled (sqlsheetd -wal-dir); omitted otherwise.
	WAL *WALSnapshot `json:"wal,omitempty"`

	Latency struct {
		Buckets []histBucket `json:"buckets"`
		Count   int64        `json:"count"`
		SumMS   float64      `json:"sum_ms"`
	} `json:"latency"`

	Cache CacheSnapshot `json:"cache"`

	// Images says how the columnar forms of table images came to be: built
	// in full (each for one of the reasons under fallbacks) or derived from
	// the previous version's form at the cost of the rows that changed.
	Images ImagesSnapshot `json:"images"`

	// GCCPUSeconds is the CPU time the process has spent in the garbage
	// collector, and HeapAllocsBytes the bytes it has allocated on the heap,
	// both cumulative since it started (package runtime/metrics; the GC
	// time is updated at the end of each cycle).
	GCCPUSeconds    float64 `json:"gc_cpu_seconds"`
	HeapAllocsBytes uint64  `json:"heap_allocs_bytes"`
}

// CacheSnapshot is the /metrics shape of sqlsheet.CacheCounters.
type CacheSnapshot struct {
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	ResultHits    int64 `json:"result_hits"`
	ReplyHits     int64 `json:"reply_hits"`
	StructReuses  int64 `json:"struct_reuses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
}

// ImagesSnapshot is the /metrics shape of sqlsheet.ImageCounters.
type ImagesSnapshot struct {
	FullBuilds  int64            `json:"full_builds"`
	Derived     int64            `json:"derived"`
	DerivedRows int64            `json:"derived_rows"`
	Fallbacks   map[string]int64 `json:"fallbacks"`
}

// WALSnapshot is the /metrics shape of sqlsheet.WALCounters. Failed is the
// write or fsync error that poisoned the log: while it is set the server
// answers reads and refuses every mutation.
type WALSnapshot struct {
	Appends        int64  `json:"appends"`
	BytesWritten   int64  `json:"bytes_written"`
	Fsyncs         int64  `json:"fsyncs"`
	CoalescedSyncs int64  `json:"coalesced_syncs"`
	Checkpoints    int64  `json:"checkpoints"`
	Replayed       int64  `json:"replayed"`
	TruncatedTail  int64  `json:"truncated_tail"`
	Segments       int64  `json:"segments"`
	SizeBytes      int64  `json:"size_bytes"`
	Failed         string `json:"failed,omitempty"`
}

// snapshot materializes the current counter values.
func (m *Metrics) snapshot() Snapshot {
	var s Snapshot
	s.ConnectionsTotal = m.ConnectionsTotal.Load()
	s.ConnectionsActive = m.ConnectionsActive.Load()
	s.QueriesTotal = m.QueriesTotal.Load()
	s.InFlight = m.InFlight.Load()
	s.Queued = m.Queued.Load()
	s.AdmissionRejected = m.AdmissionRejected.Load()
	s.QueryTimeouts = m.QueryTimeouts.Load()
	s.QueriesCanceled = m.QueriesCanceled.Load()
	s.ParseErrors = m.ParseErrors.Load()
	s.ExecErrors = m.ExecErrors.Load()
	s.ProtocolErrors = m.ProtocolErrors.Load()
	cum := int64(0)
	for i := range m.latCounts {
		cum += m.latCounts[i].Load()
		le := 0.0 // +Inf
		if i < len(latencyBuckets) {
			le = latencyBuckets[i]
		}
		s.Latency.Buckets = append(s.Latency.Buckets, histBucket{LeMS: le, Count: cum})
	}
	s.Latency.Count = m.latCount.Load()
	s.Latency.SumMS = float64(m.latSumUS.Load()) / 1000
	rt := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(rt)
	if rt[0].Value.Kind() == metrics.KindFloat64 {
		s.GCCPUSeconds = rt[0].Value.Float64()
	}
	if rt[1].Value.Kind() == metrics.KindUint64 {
		s.HeapAllocsBytes = rt[1].Value.Uint64()
	}
	return s
}
