package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"time"

	"repro/internal/client"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// httpStats accumulates what the HTTP layer costs: per-request overhead
// (client latency minus the server's elapsed_sec) and job timings.
type httpStats struct {
	requests   int
	non2xx     int
	overheads  []float64 // ms
	turnaround []float64 // s
	queue      []float64 // s
}

func (h *httpStats) report(m map[string]float64) {
	m["http.requests"] = float64(h.requests)
	m["http.non2xx"] = float64(h.non2xx)
	m["http.overhead_ms"] = median(h.overheads)
	m["jobs.count"] = float64(len(h.turnaround))
	m["jobs.turnaround_s"] = median(h.turnaround)
	m["jobs.queue_s"] = median(h.queue)
}

// failed counts a failed call, and a non-2xx response separately.
func (b *bench) httpFailed(h *httpStats, what string, err error) {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		h.non2xx++
	}
	b.chk.fail("%s: %v", what, err)
}

// evaluateHTTP sends one /v1/evaluate and returns the result and the
// latency the client saw.
func (b *bench) evaluateHTTP(ctx context.Context, c *client.Client, h *httpStats, req serve.Request, parent *active) (*api.EvalResult, time.Duration, bool) {
	b.chk.attempt()
	h.requests++
	sp := b.tr.begin("client.Evaluate", parent)
	t := time.Now()
	res, err := c.Evaluate(ctx, req)
	d := time.Since(t)
	sp.end()
	if err != nil {
		b.httpFailed(h, "evaluate", err)
		return nil, d, false
	}
	if res.Err != "" {
		b.chk.fail("evaluate %s: %s", res.Tag, res.Err)
		return nil, d, false
	}
	h.overheads = append(h.overheads, (d.Seconds()-res.ElapsedSec)*1e3)
	return res, d, true
}

// jobHTTP submits reqs as one async /v1/jobs sweep, waits for it with
// client.WaitJob (server-sent events), and returns its results in request
// order and the turnaround the client saw.
func (b *bench) jobHTTP(ctx context.Context, c *client.Client, h *httpStats, reqs []serve.Request, parent *active) ([]item, time.Duration, bool) {
	b.chk.attempt()
	h.requests++
	t := time.Now()
	sp := b.tr.begin("client.SubmitJob", parent)
	acc, err := c.SubmitJob(ctx, api.SweepRequest{Requests: reqs})
	sp.end()
	if err != nil {
		b.httpFailed(h, "submit job", err)
		return nil, time.Since(t), false
	}
	sp = b.tr.begin("client.WaitJob", parent)
	snap, err := c.WaitJob(ctx, acc.Job.ID, client.WaitOptions{})
	sp.end()
	d := time.Since(t)
	if err != nil {
		b.httpFailed(h, "wait job", err)
		return nil, d, false
	}
	if snap.Status != jobs.StatusSucceeded {
		b.chk.fail("job %s %s: %s", snap.ID, snap.Status, snap.Error)
		return nil, d, false
	}
	out := make([]item, len(snap.Results))
	for i, raw := range snap.Results {
		var r api.EvalResult
		data, err := json.Marshal(raw)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err != nil || r.Err != "" {
			b.chk.fail("job %s item %d: %v %s", snap.ID, i, err, r.Err)
			return nil, d, false
		}
		out[i] = itemOf(&r)
	}
	h.turnaround = append(h.turnaround, d.Seconds())
	h.queue = append(h.queue, d.Seconds()-snap.ElapsedSec)
	return out, d, true
}

// httpProbe serves srv over HTTP and sends reqs once each as
// /v1/evaluate, then once together as an async job, checking every
// response against want.
func (b *bench) httpProbe(srv *serve.Server, reqs []serve.Request, want []item) {
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	ctx := context.Background()
	var h httpStats
	for i, r := range reqs {
		sp := b.tr.begin("bench.http", nil)
		res, _, ok := b.evaluateHTTP(ctx, c, &h, r, sp)
		sp.end()
		if ok {
			b.chk.same("HTTP evaluate vs serve", want[i:i+1], []item{itemOf(res)})
		}
	}
	sp := b.tr.begin("bench.http", nil)
	if res, _, ok := b.jobHTTP(ctx, c, &h, reqs, sp); ok {
		b.chk.same("HTTP job vs serve", want, res)
	}
	sp.end()
	h.report(b.layer)
}

func (h *httpStats) merge(o *httpStats) {
	h.requests += o.requests
	h.non2xx += o.non2xx
	h.overheads = append(h.overheads, o.overheads...)
	h.turnaround = append(h.turnaround, o.turnaround...)
	h.queue = append(h.queue, o.queue...)
}
