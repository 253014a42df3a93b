package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// serverCounters sums the public counters of every server a run builds:
// CacheStats, SearchStats, JobStats and the /metrics phase sums. Every server starts
// from zero, so its final reading is its delta.
type serverCounters struct {
	hits, misses, compiles, evictions, restored uint64
	blocked, dispatches                         uint64
	mappings                                    int64
	// Seconds from /metrics: EvaluateCtx wall time, and the cache,
	// compile and search phases it is made of.
	evaluate, cache, compile, search float64
}

func (c *serverCounters) add(srv *serve.Server) {
	cs := srv.CacheStats()
	c.hits += cs.Hits
	c.misses += cs.Misses
	c.compiles += cs.Compiles
	c.evictions += cs.Evictions
	c.restored += cs.Restored
	ss := srv.SearchStats()
	c.blocked += ss.BlockedAcquires
	c.mappings += ss.MappingsEvaluated
	c.dispatches += uint64(srv.JobStats().Dispatches)
	sums := metricSums(srv)
	c.evaluate += sums["cimloop_evaluate_seconds_sum"]
	c.cache += sums[`cimloop_request_phase_seconds_sum{phase="cache"}`]
	c.compile += sums[`cimloop_request_phase_seconds_sum{phase="compile"}`]
	c.search += sums[`cimloop_request_phase_seconds_sum{phase="search"}`]
}

// report writes the run totals into the per-layer metrics.
func (c *serverCounters) report(m map[string]float64) {
	lookups := c.hits + c.misses
	m["cache.lookups"] = float64(lookups)
	m["cache.hits"] = float64(c.hits)
	m["cache.misses"] = float64(c.misses)
	if lookups > 0 {
		m["cache.hit_ratio"] = float64(c.hits) / float64(lookups)
	}
	m["cache.compiles"] = float64(c.compiles)
	m["cache.evictions"] = float64(c.evictions)
	m["cache.restored"] = float64(c.restored)
	m["cache.lookup_s"] = c.cache
	m["cache.compile_s"] = c.compile
	m["serve.budget_blocked"] = float64(c.blocked)
	// Time inside EvaluateCtx that is neither cache, compile nor search
	// is almost all budget parking (acquireWait).
	m["serve.budget_wait_s"] = c.evaluate - c.cache - c.compile - c.search
	m["serve.search_s"] = c.search
	m["serve.mappings"] = float64(c.mappings)
	m["jobs.dispatches"] = float64(c.dispatches)
}

// metricSums reads the _sum series of a server's /metrics exposition.
func metricSums(srv *serve.Server) map[string]float64 {
	var buf bytes.Buffer
	out := map[string]float64{}
	if err := srv.Metrics().WriteText(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.Contains(line, "_sum") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// dirUsage counts the records and bytes in a cache dir.
func dirUsage(dir string) (files int, size int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && fi.Mode().IsRegular() {
			files++
			size += fi.Size()
		}
	}
	return files, size
}
