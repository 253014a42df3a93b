// Command perfbench is the repository benchmark. It drives the CiMLoop
// service from outside, through the public functions of serve, client,
// core, mapper, mapping, persist (via BatchOptions.CacheDir) and
// valuesim, on three workloads:
//
//   - warm-search: rounds of a sweep and the same requests sent alone,
//     on warm default servers, where time goes to candidate generation
//     and costing;
//   - cold-start: first-contact sweeps on fresh servers with empty cache
//     dirs, then restarts on the populated dirs;
//   - service: two closed-loop HTTP clients against a warm server.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench --workload warm-search --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 the run also records spans
// around every call into the program, re-drives the workload through
// core and mapper, sends it over HTTP, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// defaultSeed is the seed whose outputs are also compared against the
// reference files checked in under reference/.
const defaultSeed = 1

// setupRepeats is how many times each workload builds its set-up; setup_s
// is the median of these. The first set-up of a process is usually the
// slowest, so five keep the median off it.
const setupRepeats = 5

// endToEnd lists the metrics printed with --trace 0, in BENCHMARK.json
// order, with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mappings_per_cpu_s", "1/s"},
	{"cold_sweep_s", "s"},
	{"restart_sweep_s", "s"},
	{"req_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"model_rel_error_pct", "%"},
}

// ungated are end-to-end figures printed by name but left out of the JSON
// result: wall-clock throughput and the latency tail, which swing with
// the budget parking of default options (see README.md), and the error
// rate, which is 0 and is carried by the result's failed and attempted
// counts.
var ungated = []metricDef{
	{"mappings_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"req_p90_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"job_turnaround_s", "s"},
	{"error_rate", "ratio"},
}

// perLayer lists the metrics printed with --trace 1. Every workload
// reports every one; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"core.evaluate_mapping_us", "us"},
	{"core.evaluate_mapping_allocs", "count"},
	{"mapping.analyze_us", "us"},
	{"mapping.analyze_allocs", "count"},
	{"mapper.generate_us", "us"},
	{"mapper.candidates", "count"},
	{"core.search_s", "s"},
	{"core.engine_compile_s", "s"},
	{"core.prepare_s", "s"},
	{"core.prepare_calls", "count"},
	{"core.prepare_allocs", "count"},
	{"go.alloc_bytes_per_mapping", "B"},
	{"go.allocs_per_mapping", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"serve.budget_blocked", "count"},
	{"serve.budget_wait_s", "s"},
	{"serve.search_s", "s"},
	{"serve.mappings", "count"},
	{"cache.lookups", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.compiles", "count"},
	{"cache.evictions", "count"},
	{"cache.restored", "count"},
	{"cache.lookup_s", "s"},
	{"cache.compile_s", "s"},
	{"persist.boot_s", "s"},
	{"persist.drain_s", "s"},
	{"persist.records", "count"},
	{"persist.bytes", "B"},
	{"http.requests", "count"},
	{"http.overhead_ms", "ms"},
	{"http.non2xx", "count"},
	{"jobs.count", "count"},
	{"jobs.dispatches", "count"},
	{"jobs.turnaround_s", "s"},
	{"jobs.queue_s", "s"},
	{"valuesim.simulate_s", "s"},
	{"valuesim.table2_ratio", "ratio"},
	{"bench.error_rate", "ratio"},
	{"wall.mappings_per_s", "1/s"},
	{"wall.req_per_s", "1/s"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

type metricDef struct{ name, unit string }

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"warm-search": runWarmSearch,
	"cold-start":  runColdStart,
	"service":     runService,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "warm-search, cold-start or service")
	seed := flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same requests")
	seconds := flag.Int("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	writeRef := flag.Bool("write-reference", false, "rewrite reference/<workload>.json from this run (default seed only)")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload warm-search|cold-start|service [--seed N] [--seconds S] [--trace 0|1]\n")
		return 2
	}
	b, err := newBench(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	b.writeRef = *writeRef
	if err := selfTest(); err != nil {
		b.chk.mismatch("self-test: %v", err)
	}
	if err := drive(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run: its inputs, its scratch directory, the output check,
// the tracer and the metrics it has measured so far.
type bench struct {
	name     string
	seed     int64
	window   time.Duration
	traced   bool
	writeRef bool
	// refDir holds the checked-in reference outputs; work is this run's
	// scratch directory (cache dirs), removed at exit.
	refDir string
	work   string
	dirs   int

	rng   *rand.Rand
	chk   checker
	tr    *tracer
	cnt   serverCounters
	e2e   map[string]float64
	layer map[string]float64
	// notes are printed before the metrics: sample counts and latency
	// quantiles.
	notes []string
}

func newBench(name string, seed int64, window time.Duration, traced bool) (*bench, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The binary lives in <checkout>/.bench_build; the checkout holds
	// perfbench/reference. Scratch state stays inside the checkout too.
	root := filepath.Dir(filepath.Dir(exe))
	refDir := filepath.Join(root, "perfbench", "reference")
	if _, err := os.Stat(refDir); err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		name: name, seed: seed, window: window, traced: traced,
		refDir: refDir, work: work,
		rng:   rand.New(rand.NewSource(seed)),
		tr:    newTracer(traced),
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	for _, m := range perLayer {
		b.layer[m.name] = 0
	}
	return b, nil
}

// cacheDir returns a fresh, empty cache directory for one server.
func (b *bench) cacheDir() (string, error) {
	b.dirs++
	dir := filepath.Join(b.work, "cache-"+strconv.Itoa(b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// newServer builds a server with default options on cache dir dir and
// returns how long construction took: the persist boot when dir is
// populated.
func (b *bench) newServer(dir string, parent *active) (*serve.Server, time.Duration) {
	sp := b.tr.begin("serve.NewServer", parent)
	t := time.Now()
	srv := serve.NewServer(serve.BatchOptions{CacheDir: dir})
	d := time.Since(t)
	sp.end()
	return srv, d
}

// closeServer drains a server's write-behind queue and folds its counters
// into the run totals. The server's cache stays usable afterwards.
func (b *bench) closeServer(srv *serve.Server, parent *active) {
	sp := b.tr.begin("serve.Close", parent)
	t := time.Now()
	srv.Close()
	b.layer["persist.drain_s"] += time.Since(t).Seconds()
	sp.end()
	b.cnt.add(srv)
}

// sweep runs one SweepN on srv and checks every item for errors.
func (b *bench) sweep(srv *serve.Server, reqs []serve.Request, parent *active) ([]*serve.Result, time.Duration, error) {
	sp := b.tr.begin("serve.SweepN", parent)
	t := time.Now()
	res, err := srv.SweepN(reqs, 0)
	d := time.Since(t)
	sp.end()
	if err != nil {
		return nil, d, fmt.Errorf("sweep: %w", err)
	}
	for i, r := range res {
		b.chk.attempt()
		switch {
		case r == nil:
			b.chk.fail("sweep item %d: no result", i)
		case r.Err != "":
			b.chk.fail("sweep item %s: %s", r.Tag, r.Err)
		}
	}
	return res, d, nil
}

// note records one line for the human-readable part of the output.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// finish computes the run-wide metrics and prints the result.
func (b *bench) finish() error {
	if err := b.modelError(); err != nil {
		return err
	}
	if b.e2e["peak_rss_mb"] <= 0 {
		return fmt.Errorf("peak RSS not readable from /proc/self/status")
	}
	b.cnt.report(b.layer)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.layer["go.gc_cpu_frac"] = ms.GCCPUFraction
	if b.traced {
		b.layer["trace.spans"] = float64(b.tr.count())
		b.tr.selfTimes(b.layer)
		if err := b.tr.write(filepath.Join(filepath.Dir(b.work), "traces"), b.name, b.seed); err != nil {
			return err
		}
	}
	if b.chk.attempted > 0 {
		b.layer["bench.error_rate"] = float64(b.chk.failed) / float64(b.chk.attempted)
	}
	b.e2e["error_rate"] = b.layer["bench.error_rate"]
	b.layer["wall.mappings_per_s"] = b.e2e["mappings_per_s"]
	b.layer["wall.req_per_s"] = b.e2e["req_per_s"]

	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
		for _, name := range selfNames() {
			defs = append(defs, metricDef{name, "s"})
		}
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("workload %s seed %d window %s trace %v\n", b.name, b.seed, b.window, b.traced)
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], ungated...) {
		if v, ok := b.e2e[d.name]; ok {
			fmt.Printf("metric %-30s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	if b.traced {
		for _, d := range defs {
			fmt.Printf("layer  %-30s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	for _, m := range b.chk.first {
		fmt.Fprintln(os.Stderr, "failed:", m)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.chk.failed == 0,
		"attempted": b.chk.attempted,
		"failed":    b.chk.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// latencies collects per-request latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// report sets req_p50_ms, req_p90_ms and req_p95_ms and notes the sample
// count and quantiles.
func (l latencies) report(b *bench, what string) {
	b.e2e["req_p50_ms"] = quantile(l, 0.50)
	b.e2e["req_p90_ms"] = quantile(l, 0.90)
	b.e2e["req_p95_ms"] = quantile(l, 0.95)
	b.note("requests %d (%s), %d beyond p90", len(l), what, len(l)-int(math.Ceil(0.90*float64(len(l)))))
	b.note("latency ms: p25 %.2f p50 %.2f p75 %.2f p90 %.2f p95 %.2f p99 %.2f max %.2f",
		quantile(l, 0.25), quantile(l, 0.5), quantile(l, 0.75), quantile(l, 0.9), quantile(l, 0.95), quantile(l, 0.99), quantile(l, 1))
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// settle returns freed memory to the OS between independent phases, so
// that each phase's peak RSS starts from the same baseline instead of
// from whatever garbage the previous phase left behind.
func settle() { debug.FreeOSMemory() }

// resetPeakRSS resets the kernel's high-water mark of this process's
// resident set to its current size, so that the next peakRSSMB reading
// covers only what follows.
func resetPeakRSS() {
	// Best effort: without it the reading covers the whole process.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
