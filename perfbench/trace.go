package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans in memory around the benchmark's calls into the
// program and writes them out at the end of a traced run. When off, begin
// returns nil and a nil span's end does nothing, so untraced runs pay one
// nil check per call.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []spanRec
}

// spanRec is one finished span. Spans of one operation (a sweep, a
// request, a job) share Op; Parent is 0 for a root span.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// active is an open span.
type active struct {
	tr         *tracer
	id, parent int64
	op         int64
	name       string
	start      time.Time
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// begin opens a span under parent (nil for a root span, which starts a
// new operation).
func (t *tracer) begin(name string, parent *active) *active {
	if !t.on.Load() {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	a := &active{tr: t, id: id, op: id, name: name, start: time.Now()}
	if parent != nil {
		a.parent, a.op = parent.id, parent.op
	}
	return a
}

// end closes the span (a nil span does nothing).
func (a *active) end() {
	if a == nil {
		return
	}
	now := time.Now()
	t := a.tr
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		ID: a.id, Parent: a.parent, Op: a.op, Name: a.name,
		Start: int64(a.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
	})
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfName is the per-layer metric that carries one span name's self time.
func selfName(span string) string { return "self." + span + "_s" }

// selfNames lists the self-time metrics in a fixed order.
func selfNames() []string {
	out := make([]string, len(layerSpans))
	for i, n := range layerSpans {
		out[i] = selfName(n)
	}
	return out
}

// layerSpans are the spans around calls into the program whose self time
// is reported; every workload's traced run records each of them. The
// benchmark's own root spans (bench.setup, bench.timed, bench.redrive,
// bench.http) and system.Build, which only cold-start calls, are written
// to the trace file but not reported.
var layerSpans = []string{
	"serve.NewServer", "serve.SweepN", "serve.Close", "serve.EvaluateCtx",
	"client.Evaluate", "client.SubmitJob", "client.WaitJob",
	"macros.ByName", "core.NewEngine", "core.PrepareLayer",
	"mapper.SearchCtx", "core.EvaluateMapping", "valuesim.Compare",
}

// selfTimes sums, per reported span name, each span's duration minus the
// part of it that its children cover (overlapping children are merged
// first).
func (t *tracer) selfTimes(into map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, n := range layerSpans {
		into[selfName(n)] = 0
	}
	for _, s := range t.spans {
		if _, ok := into[selfName(s.Name)]; ok {
			into[selfName(s.Name)] += float64(s.End-s.Start-covered(children[s.ID])) / 1e9
		}
	}
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// write stores the spans as JSON lines in dir/<workload>-seed<N>.jsonl.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
