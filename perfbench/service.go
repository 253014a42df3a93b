package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/serve"
)

const (
	// serviceClients closed-loop clients share the server: each sends its
	// next operation only when the previous one has completed.
	serviceClients = 2
	// jobShare of operations are small async job grids of jobItems pool
	// requests; the rest are single /v1/evaluate calls.
	jobShare = 0.10
	jobItems = 2
)

var (
	serviceMacros   = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}
	serviceNetworks = []string{"resnet18", "vit-base", "gpt2", "transformer"}
	serviceBudgets  = []int{16, 32, 48, 64}
)

// servicePoolReqs is the request pool every operation draws from: each
// macro x network pair, the first 4 layers, at each budget. The pool's
// make-up is the same for every seed, so the seed changes only the
// search seeds and the order of operations, not how much work the mix
// asks for.
func servicePoolReqs(b *bench) []serve.Request {
	var pool []serve.Request
	for _, m := range serviceMacros {
		for _, n := range serviceNetworks {
			for _, budget := range serviceBudgets {
				pool = append(pool, serve.Request{
					Macro: m, Network: n, Layers: 4, MaxMappings: budget,
					Seed: b.rng.Int63n(1 << 20),
				})
			}
		}
	}
	return pool
}

// serviceOp is one completed client operation: pool indices and the
// results the client received for them.
type serviceOp struct {
	pool    []int
	got     []item
	latency time.Duration
	job     bool
}

// runService alternates setupRepeats set-ups with slices of the window.
// In each slice the set-up's warm default server is served over HTTP to
// two closed-loop clients sending a seeded mix of evaluates and small
// async jobs. Search work per request is small, so the HTTP/JSON layer,
// the job queue and the concurrency budget show here.
func runService(b *bench) error {
	pool := servicePoolReqs(b)
	su := &setups{reqs: serve.Grid(serviceMacros, serviceNetworks, nil, 4, 16), restarts: restartsPerCycle}
	rngs := make([]*rand.Rand, serviceClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(b.seed*1000 + int64(i)))
	}
	tm := b.newTimed(setupRepeats)
	var ops []serviceOp
	var h httpStats
	var srv *serve.Server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			b.closeServer(srv, nil)
		}
		next, err := b.nextSetup(su)
		if err != nil {
			return err
		}
		srv = next
		ops = append(ops, b.serviceSlice(srv, pool, rngs, tm, &h)...)
	}
	su.report(b)
	wall := tm.elapsed

	want, err := b.inProcess(srv, pool, nil, nil)
	if err != nil {
		return err
	}
	var lat latencies
	var mappings int64
	for _, op := range ops {
		wantOp := make([]item, len(op.pool))
		for i, k := range op.pool {
			wantOp[i] = want[k]
			mappings += op.got[i].Mappings
		}
		b.chk.same("HTTP vs in-process serve", wantOp, op.got)
		if !op.job {
			lat.add(op.latency)
		}
	}
	tm.finish(mappings)
	b.e2e["mappings_per_s"] = float64(mappings) / wall.Seconds()
	b.e2e["req_per_s"] = float64(len(ops)) / wall.Seconds()
	lat.report(b, "/v1/evaluate, client-side")
	b.e2e["job_turnaround_s"] = median(h.turnaround)
	b.note("service operations %d completed (%d jobs) over %.2f s in %d slices with %d clients",
		len(ops), len(h.turnaround), wall.Seconds(), setupRepeats, serviceClients)
	if b.traced {
		h.report(b.layer)
	}
	if err := b.checkReference(reference{Items: want}); err != nil {
		return err
	}
	if b.traced {
		got, err := b.redrive(pool)
		if err != nil {
			return err
		}
		b.chk.same("core/mapper re-drive vs serve", want, got)
	}
	b.closeServer(srv, nil)
	return nil
}

// serviceSlice serves srv over HTTP for one slice of the window to one
// closed-loop client per rng, and returns the operations that completed.
// The HTTP server is closed before it returns.
func (b *bench) serviceSlice(srv *serve.Server, pool []serve.Request, rngs []*rand.Rand, tm *timed, h *httpStats) []serviceOp {
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := client.New(hs.URL)
	var mu sync.Mutex
	var ops []serviceOp
	var wg sync.WaitGroup
	tm.begin()
	for _, rng := range rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []serviceOp
			var hst httpStats
			for tm.more(0) {
				op := b.serviceOp(c, &hst, pool, rng)
				tm.done(op.latency)
				if op.got != nil {
					mine = append(mine, op)
				}
			}
			mu.Lock()
			ops = append(ops, mine...)
			h.merge(&hst)
			mu.Unlock()
		}()
	}
	wg.Wait()
	tm.end()
	return ops
}

// serviceOp sends one operation of the mix and returns what came back
// (got is nil when the operation failed).
func (b *bench) serviceOp(c *client.Client, h *httpStats, pool []serve.Request, rng *rand.Rand) serviceOp {
	ctx := context.Background()
	sp := b.tr.begin("bench.timed", nil)
	defer sp.end()
	if rng.Float64() < jobShare {
		idx := rng.Perm(len(pool))[:jobItems]
		reqs := make([]serve.Request, len(idx))
		for i, k := range idx {
			reqs[i] = pool[k]
		}
		got, d, _ := b.jobHTTP(ctx, c, h, reqs, sp)
		return serviceOp{pool: idx, got: got, latency: d, job: true}
	}
	k := rng.Intn(len(pool))
	res, d, ok := b.evaluateHTTP(ctx, c, h, pool[k], sp)
	if !ok {
		return serviceOp{latency: d}
	}
	return serviceOp{pool: []int{k}, got: []item{itemOf(res)}, latency: d}
}

// inProcess evaluates each request in-process on srv through
// Server.EvaluateCtx, one at a time, adding each call's latency to lat
// when lat is not nil.
func (b *bench) inProcess(srv *serve.Server, reqs []serve.Request, lat *latencies, parent *active) ([]item, error) {
	out := make([]item, len(reqs))
	for i, r := range reqs {
		b.chk.attempt()
		sp := b.tr.begin("serve.EvaluateCtx", parent)
		t := time.Now()
		res, err := srv.EvaluateCtx(context.Background(), r)
		d := time.Since(t)
		sp.end()
		if lat != nil {
			lat.add(d)
		}
		if err != nil {
			return nil, fmt.Errorf("in-process evaluate: %w", err)
		}
		out[i] = itemOf(res)
	}
	return out, nil
}
