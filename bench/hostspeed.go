package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The reference host is a shared sandbox whose speed shifts by 10-40% for
// minutes at a time: whole runs come out slower in every metric at once, CPU
// time per statement included. Watching the host for half an hour (a fixed
// engine load beside six micro-kernels) showed what the slow spells are: a
// neighbour saturating memory bandwidth. An ALU loop barely notices them,
// dependent random reads a little, and a sequential read-modify-write pass
// over a large buffer follows the engine's slowdown best (the engine is
// row-at-a-time over a 300 MB heap, plus its garbage collector). No amount
// of repetition inside a 30-second run averages such a spell away, so that
// pass runs as a reference task between the timed sections of a run and
// every time the run reports is scaled by how fast the host ran it. The
// reported times are therefore milliseconds at reference-host speed, which
// is what a comparison between two commits needs; the raw wall-clock values
// and the factor are printed beside them. The compensation is partial (the
// engine slows about twice as much as the task) and deliberately linear.
//
// The task belongs to the benchmark and touches no engine code, so an engine
// change cannot move the scale.

const (
	refWords  = 1 << 23 // 64 MB per worker: far larger than any cache
	refPasses = 4
	// refWarmPasses run untimed first: a core that just idled (the harness
	// mostly waits on the server) runs its first tens of milliseconds at up
	// to half speed, which would measure the wake-up and not the host.
	refWarmPasses = 3
	// refNominal is the task's duration on the reference host in a quiet
	// minute; it only fixes the unit (a host exactly this fast scales by 1).
	refNominal = 21 * time.Millisecond
	// refSensitivity is how much of the task's slowdown the engine shares:
	// the task is nothing but memory traffic, the engine is partly compute.
	// Calibrated on ten seeds of all four workloads through a slow spell:
	// an exponent of 0.4 brought the interquartile spread of stmt_per_s
	// from 13/10/19/4 % (raw) to 8/3/9/4 %; 1.0 overshoots (7/11/15/10 %).
	refSensitivity = 0.4
)

// hostProbe times the reference task on every core at once.
type hostProbe struct {
	bufs [][]uint64
	seen []time.Duration // every probe of the run
}

func newHostProbe(workers int) *hostProbe {
	p := &hostProbe{bufs: make([][]uint64, workers)}
	for i := range p.bufs {
		p.bufs[i] = make([]uint64, refWords)
	}
	p.run() // touch the pages once, outside any measurement
	p.seen = nil
	return p
}

var refSink atomic.Uint64 // keeps the compiler from dropping the task

// run executes the task — read-modify-write passes over the buffer, every
// worker at once so they compete for bandwidth as the engine's workers do —
// and returns its mean duration over the workers.
func (p *hostProbe) run() time.Duration {
	var wg sync.WaitGroup
	took := make([]time.Duration, len(p.bufs))
	for w, buf := range p.bufs {
		wg.Add(1)
		go func(w int, buf []uint64) {
			defer wg.Done()
			var s uint64
			var start time.Time
			for pass := 0; pass < refWarmPasses+refPasses; pass++ {
				if pass == refWarmPasses {
					start = time.Now()
				}
				for i := range buf {
					s += buf[i]
					buf[i] = s
				}
			}
			refSink.Add(s)
			took[w] = time.Since(start)
		}(w, buf)
	}
	wg.Wait()
	var total time.Duration
	for _, d := range took {
		total += d
	}
	mean := total / time.Duration(len(took))
	p.seen = append(p.seen, mean)
	return mean
}

// scale is the factor that converts a time measured during this run to
// reference-host speed: the nominal task time over the median of the run's
// probes. One factor per run, not per section: the slow spells last minutes,
// a run half a minute, and the median of a dozen probes is steadier than any
// pair of them.
func (p *hostProbe) scale() float64 {
	return math.Pow(ms(refNominal)/median(p.seenMS()), refSensitivity)
}

func (p *hostProbe) seenMS() []float64 {
	out := make([]float64, len(p.seen))
	for i, d := range p.seen {
		out[i] = ms(d)
	}
	return out
}
