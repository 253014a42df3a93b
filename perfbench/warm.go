package main

import (
	"fmt"
	"time"

	"repro/internal/serve"
)

// warmGrid is the warm-search request set: 6 macros x 3 networks, all
// layers, 128 candidate mappings per layer, one search seed per request
// drawn from the run's seed.
func warmGrid(b *bench) []serve.Request {
	grid := serve.Grid(
		[]string{"base", "macro-a", "macro-b", "macro-d", "digital-cim", "photonic"},
		[]string{"resnet18", "vit-base", "gpt2"}, nil, 0, 128)
	for i := range grid {
		grid[i].Seed = b.rng.Int63n(1 << 20)
	}
	return grid
}

// setups collects the set-ups of a warm workload. A set-up is a
// first-contact sweep on a fresh server with an empty cache dir, a drain,
// and a restart on the populated dir that repeats the sweep; the
// restarted server is warm. Further restarts on the same dir may follow a
// set-up, to sample a short restart sweep more often.
type setups struct {
	reqs     []serve.Request
	restarts int // per set-up, at least 1

	setup, cold, restart []time.Duration
	// coldRes is the first set-up's cold sweep, which every later sweep
	// must reproduce.
	coldRes []item
}

// nextSetup builds one set-up and returns its warm server. setup_s counts the
// cold sweep, the drain and the first restart; later restarts only add
// restart_sweep_s samples.
func (b *bench) nextSetup(su *setups) (*serve.Server, error) {
	settle()
	sp := b.tr.begin("bench.setup", nil)
	defer sp.end()
	dir, err := b.cacheDir()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	first, _ := b.newServer(dir, sp)
	cold, _, err := b.sweep(first, su.reqs, sp)
	if err != nil {
		return nil, err
	}
	su.cold = append(su.cold, time.Since(t))
	b.closeServer(first, sp)
	files, size := dirUsage(dir)
	b.layer["persist.records"] += float64(files)
	b.layer["persist.bytes"] += float64(size)
	if su.coldRes == nil {
		su.coldRes = itemsOf(cold)
	} else {
		b.chk.same("set-up vs first set-up", su.coldRes, itemsOf(cold))
	}

	var srv *serve.Server
	for i := 0; i < max(su.restarts, 1); i++ {
		if srv != nil {
			b.closeServer(srv, sp)
		}
		t2 := time.Now()
		var boot time.Duration
		srv, boot = b.newServer(dir, sp)
		b.layer["persist.boot_s"] += boot.Seconds()
		restart, _, err := b.sweep(srv, su.reqs, sp)
		if err != nil {
			return nil, err
		}
		su.restart = append(su.restart, time.Since(t2))
		if i == 0 {
			su.setup = append(su.setup, time.Since(t))
		}
		b.chk.same("restart vs cold", su.coldRes, itemsOf(restart))
	}
	return srv, nil
}

// report sets setup_s, cold_sweep_s and restart_sweep_s to the medians
// over the set-ups (every restart counts).
func (su *setups) report(b *bench) {
	b.e2e["setup_s"] = median(seconds(su.setup))
	b.e2e["cold_sweep_s"] = median(seconds(su.cold))
	b.e2e["restart_sweep_s"] = median(seconds(su.restart))
}

// warmRun accumulates the timed rounds of a warm-search run.
type warmRun struct {
	lat, items                  latencies
	sweepMappings, loneMappings int64
	wall, sweepCPU              time.Duration
	sweeps                      int
}

// runWarmSearch alternates setupRepeats set-ups with slices of the
// window. In each slice it repeats rounds on the set-up's warm default
// server. Every engine and layer context is a cache hit, so the time goes
// to candidate generation, costing and the executor's concurrency budget.
//
// Request latency is that of the lone requests of each round. Sweep items
// park on the budget (hazard 2 in README.md), so their latencies swing
// with the host's timing far more than the work they do; they are
// printed, not gated. The lone requests run the same search with nothing
// else holding the budget.
func runWarmSearch(b *bench) error {
	su := &setups{reqs: warmGrid(b), restarts: 1}
	tm := b.newTimed(setupRepeats)
	var w warmRun
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
		tm.begin()
		for tm.more(0) {
			if err := b.warmRound(srv, su, tm, &w); err != nil {
				return err
			}
		}
		tm.end()
	}
	su.report(b)
	// The CPU rate is the sweeps': lone requests fan out their search, and
	// the share of the window they take varies with the sweeps' parking.
	tm.finishCPU(w.sweepMappings+w.loneMappings, w.sweepMappings, w.sweepCPU)
	b.e2e["mappings_per_s"] = float64(w.sweepMappings) / w.wall.Seconds()
	b.e2e["req_per_s"] = float64(len(w.items)) / w.wall.Seconds()
	w.lat.report(b, "lone EvaluateCtx calls")
	b.note("sweep item ElapsedSec ms (not gated): p50 %.2f p90 %.2f p95 %.2f max %.2f",
		quantile(w.items, 0.5), quantile(w.items, 0.9), quantile(w.items, 0.95), quantile(w.items, 1))
	b.note("warm sweeps %d in %d slices, %d mappings each, %.3f s mean", w.sweeps, setupRepeats,
		w.sweepMappings/int64(max(w.sweeps, 1)), w.wall.Seconds()/float64(max(w.sweeps, 1)))
	if err := b.checkReference(reference{Items: su.coldRes}); err != nil {
		return err
	}
	if b.traced {
		if err := b.traceLayers(srv, su.reqs, su.coldRes); err != nil {
			return err
		}
	}
	b.closeServer(srv, nil)
	if w.sweeps == 0 {
		return fmt.Errorf("no warm sweep finished")
	}
	return nil
}

// warmRound is one timed round on the warm server srv: a sweep of the
// warm grid, then the same requests one at a time through EvaluateCtx, as
// a lone caller sends them. Both must reproduce the first cold sweep.
func (b *bench) warmRound(srv *serve.Server, su *setups, tm *timed, w *warmRun) error {
	sp := b.tr.begin("bench.timed", nil)
	defer sp.end()
	cpu := cpuTime()
	res, d, err := b.sweep(srv, su.reqs, sp)
	w.sweepCPU += cpuTime() - cpu
	if err != nil {
		return err
	}
	t := time.Now()
	alone, err := b.inProcess(srv, su.reqs, &w.lat, sp)
	if err != nil {
		return err
	}
	// The lone pass is the operation the tracing overhead is measured on:
	// the sweep's own time is bimodal.
	tm.done(time.Since(t))
	w.sweeps++
	w.wall += d
	for _, r := range res {
		w.sweepMappings += r.MappingsEvaluated
		w.items.add(time.Duration(r.ElapsedSec * float64(time.Second)))
	}
	for _, it := range alone {
		w.loneMappings += it.Mappings
	}
	b.chk.same("warm sweep vs cold", su.coldRes, itemsOf(res))
	b.chk.same("EvaluateCtx vs cold", su.coldRes, alone)
	return nil
}
