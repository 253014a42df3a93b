package main

import (
	"runtime"
	"sync"
	"time"
)

// timed is a workload's timed phase. It may be cut into slices that
// alternate with set-ups: the host's speed drifts over seconds, so a
// figure sampled across the whole run is steadier than one sampled in a
// single block. The slices together last the window. In a traced run the
// first half of the window runs untraced and the second half traced, and
// the difference in mean operation time is the tracing overhead. more and
// done are safe for concurrent use by closed-loop clients.
type timed struct {
	b      *bench
	slices int

	// The open slice: its index, start, and the process's CPU time and
	// memory statistics when it began.
	slice int
	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats

	// Totals over the closed slices, and each slice's peak RSS in MB.
	elapsed        time.Duration
	cpuUsed        time.Duration
	bytes, mallocs uint64
	peaks          []float64

	mu       sync.Mutex
	sliceOps int
	ops      [2]int
	opTime   [2]time.Duration
}

// newTimed returns a timed phase of the given number of slices (at least
// 1). Tracing stays off until the second half of the window.
func (b *bench) newTimed(slices int) *timed {
	b.tr.on.Store(false)
	return &timed{b: b, slices: max(slices, 1)}
}

// begin opens the next slice, from a settled heap and a reset peak RSS.
func (t *timed) begin() {
	settle()
	resetPeakRSS()
	t.sliceOps = 0
	runtime.ReadMemStats(&t.ms)
	t.cpu = cpuTime()
	t.start = time.Now()
}

// more reports whether another operation expected to take next fits in
// the open slice; the first operation of a slice always runs. A slice
// ends at its share of the window, counted from the start of the first
// slice, so a slice that overran shortens the next.
func (t *timed) more(next time.Duration) bool {
	in := time.Since(t.start)
	if t.b.traced && t.elapsed+in >= t.b.window/2 {
		t.b.tr.on.Store(true)
	}
	end := t.b.window * time.Duration(t.slice+1) / time.Duration(t.slices)
	t.mu.Lock()
	first := t.sliceOps == 0
	t.mu.Unlock()
	return first || t.elapsed+in+next < end
}

// done records one finished operation that took d.
func (t *timed) done(d time.Duration) {
	i := 0
	if t.b.tr.on.Load() {
		i = 1
	}
	t.mu.Lock()
	t.sliceOps++
	t.ops[i]++
	t.opTime[i] += d
	t.mu.Unlock()
}

// end closes the open slice and adds it to the totals.
func (t *timed) end() {
	t.elapsed += time.Since(t.start)
	t.cpuUsed += cpuTime() - t.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.bytes += ms.TotalAlloc - t.ms.TotalAlloc
	t.mallocs += ms.Mallocs - t.ms.Mallocs
	t.peaks = append(t.peaks, peakRSSMB())
	t.slice++
}

// finish ends the phase after its last slice: the median of the slices'
// peak RSS, the mappings costed per CPU-second of the whole process over
// the slices (the per-core rate of paper Table II, which budget parking
// does not inflate because a parked goroutine uses no CPU), allocation
// rates per costed mapping, and the tracing overhead in traced runs.
// Tracing stays on afterwards.
func (t *timed) finish(mappings int64) {
	t.finishCPU(mappings, mappings, t.cpuUsed)
}

// finishCPU is finish with the CPU rate taken over cpuMappings mappings
// costed in cpu, a part of the phase.
func (t *timed) finishCPU(mappings, cpuMappings int64, cpu time.Duration) {
	t.b.e2e["peak_rss_mb"] = median(t.peaks)
	if cpu > 0 {
		t.b.e2e["mappings_per_cpu_s"] = float64(cpuMappings) / cpu.Seconds()
	}
	if mappings > 0 {
		t.b.layer["go.alloc_bytes_per_mapping"] = float64(t.bytes) / float64(mappings)
		t.b.layer["go.allocs_per_mapping"] = float64(t.mallocs) / float64(mappings)
	}
	if t.b.traced && t.ops[0] > 0 && t.ops[1] > 0 {
		off := t.opTime[0].Seconds() / float64(t.ops[0])
		on := t.opTime[1].Seconds() / float64(t.ops[1])
		t.b.layer["trace.overhead_pct"] = 100 * (on/off - 1)
	}
	t.b.tr.on.Store(t.b.traced)
}
