package main

import (
	"fmt"
	"time"

	"repro/internal/macros"
	"repro/internal/serve"
	"repro/internal/system"
	"repro/internal/workload"
)

var (
	coldMacros    = []string{"base", "macro-a", "macro-b", "macro-c", "macro-d", "digital-cim", "tpu-like", "photonic"}
	coldScenarios = []string{"", system.WeightStationary.String()}
)

// restartsPerCycle is how many fresh servers boot on each populated cache
// dir in one cold-start cycle, and in each service set-up, whose restart
// sweep is too short to time once per set-up.
const restartsPerCycle = 3

// coldGrid is the cold-start request set: 8 macros x {resnet18,
// transformer} x {bare, weight-stationary}, all layers, 4 candidate
// mappings per layer. It compiles 448 cache entries, which fit the
// default 512-entry cache; a larger grid would measure eviction churn,
// not a warm start.
func coldGrid(b *bench) []serve.Request {
	grid := serve.Grid(coldMacros, []string{"resnet18", "transformer"}, coldScenarios, 0, 4)
	for i := range grid {
		grid[i].Seed = b.rng.Int63n(1 << 20)
	}
	return grid
}

// cacheKeys counts the distinct engines and layer contexts a request set
// compiles, by the server's own fingerprints: the exact compile count of
// a cold sweep.
func cacheKeys(reqs []serve.Request) (uint64, error) {
	keys := map[string]bool{}
	for _, r := range reqs {
		arch, err := macros.ByName(r.Macro)
		if err != nil {
			return 0, err
		}
		if r.Scenario != "" {
			sc, err := scenarioByName(r.Scenario)
			if err != nil {
				return 0, err
			}
			if arch, err = system.Build(arch, sc, system.Config{Macros: 1}); err != nil {
				return 0, err
			}
		}
		net, err := workload.ByName(r.Network)
		if err != nil {
			return 0, err
		}
		fp := serve.ArchFingerprint(arch)
		keys["eng|"+fp] = true
		for _, l := range layersOf(net, r.Layers) {
			keys["ctx|"+fp+"|"+serve.LayerFingerprint(l)] = true
		}
	}
	return uint64(len(keys)), nil
}

// runColdStart repeats cycles of: a fresh server on an empty cache dir
// sweeps the grid (every engine compile and PrepareLayer runs), Close
// drains its write-behind queue, then fresh servers boot on the populated
// dir and repeat the sweep with no compiles.
func runColdStart(b *bench) error {
	reqs := coldGrid(b)
	want, err := cacheKeys(reqs)
	if err != nil {
		return err
	}
	// Set-up: priming on throwaway servers, which sweep the toy network
	// on every macro and scenario of the grid, so the first cycle does not
	// pay process-level one-time initialization the others skip.
	prime := serve.Grid(coldMacros, []string{"toy"}, coldScenarios, 0, 4)
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		settle()
		sp := b.tr.begin("bench.setup", nil)
		dir, err := b.cacheDir()
		if err != nil {
			return err
		}
		t := time.Now()
		srv, _ := b.newServer(dir, sp)
		if _, _, err := b.sweep(srv, prime, sp); err != nil {
			return err
		}
		setups = append(setups, time.Since(t))
		b.closeServer(srv, sp)
		sp.end()
	}
	b.e2e["setup_s"] = median(seconds(setups))

	tm := b.newTimed(1)
	tm.begin()
	var st coldStats
	var first []item
	var last time.Duration
	for tm.more(last) {
		sp := b.tr.begin("bench.timed", nil)
		t := time.Now()
		res, err := b.coldCycle(reqs, want, sp, &st)
		if err != nil {
			return err
		}
		last = time.Since(t)
		sp.end()
		tm.done(last)
		if first == nil {
			first = res
		} else {
			b.chk.same("cycle vs first cycle", first, res)
		}
	}
	tm.end()
	tm.finish(st.mappings)
	// The cycles are identical, so their median peak is the steadier figure.
	b.e2e["peak_rss_mb"] = median(st.peaks)
	b.e2e["cold_sweep_s"] = median(seconds(st.colds))
	b.e2e["restart_sweep_s"] = median(seconds(st.restarts))
	b.e2e["mappings_per_s"] = float64(st.mappings) / st.wall.Seconds()
	b.e2e["req_per_s"] = float64(st.items) / st.wall.Seconds()
	st.lat.report(b, "cold sweep items, ElapsedSec")
	b.note("cold-start cycles %d: %d restarts, %d cache entries compiled per cold sweep", len(st.colds), len(st.restarts), want)
	if err := b.checkReference(reference{Items: first, Compiles: want}); err != nil {
		return err
	}
	if b.traced {
		srv, _ := b.newServer(st.dir, nil)
		if _, _, err := b.sweep(srv, reqs, nil); err != nil {
			return err
		}
		if err := b.traceLayers(srv, reqs, first); err != nil {
			return err
		}
		b.closeServer(srv, nil)
	}
	return nil
}

// coldStats accumulates the timed cold-start cycles.
type coldStats struct {
	lat             latencies
	colds, restarts []time.Duration
	mappings        int64
	items           int
	wall            time.Duration // cold plus restart sweeps
	dir             string        // the last cycle's populated cache dir
	peaks           []float64     // each cycle's peak RSS, MB
}

// coldCycle runs one cold sweep and its restarts, checks the compile
// counts and that every restart reproduces the cold results, and returns
// the cold results.
func (b *bench) coldCycle(reqs []serve.Request, want uint64, parent *active, st *coldStats) ([]item, error) {
	settle()
	resetPeakRSS()
	dir, err := b.cacheDir()
	if err != nil {
		return nil, err
	}
	st.dir = dir
	t := time.Now()
	srv, _ := b.newServer(dir, parent)
	res, _, err := b.sweep(srv, reqs, parent)
	if err != nil {
		return nil, err
	}
	st.add(res, time.Since(t), &st.colds, true)
	cold := itemsOf(res)
	b.chk.attempt()
	if got := srv.CacheStats().Compiles; got != want {
		b.chk.fail("cold sweep compiled %d entries, want %d", got, want)
	}
	b.closeServer(srv, parent)
	files, size := dirUsage(dir)
	b.layer["persist.records"] += float64(files)
	b.layer["persist.bytes"] += float64(size)

	for i := 0; i < restartsPerCycle; i++ {
		t := time.Now()
		srv, boot := b.newServer(dir, parent)
		b.layer["persist.boot_s"] += boot.Seconds()
		res, _, err := b.sweep(srv, reqs, parent)
		if err != nil {
			return nil, err
		}
		st.add(res, time.Since(t), &st.restarts, false)
		cs := srv.CacheStats()
		b.chk.attempt()
		if cs.Compiles != 0 || cs.Restored != want {
			b.chk.fail("restart compiled %d and restored %d entries, want 0 and %d", cs.Compiles, cs.Restored, want)
		}
		b.chk.same("restart vs cold", cold, itemsOf(res))
		b.closeServer(srv, parent)
	}
	st.peaks = append(st.peaks, peakRSSMB())
	return cold, nil
}

// add records one sweep that took d into the cycle totals and walls;
// the request latencies are those of the cold sweeps only.
func (st *coldStats) add(res []*serve.Result, d time.Duration, walls *[]time.Duration, cold bool) {
	*walls = append(*walls, d)
	st.wall += d
	st.items += len(res)
	for _, r := range res {
		st.mappings += r.MappingsEvaluated
		if cold {
			st.lat.add(time.Duration(r.ElapsedSec * float64(time.Second)))
		}
	}
}

// scenarioByName parses a system scenario as Scenario.String prints it.
func scenarioByName(name string) (system.Scenario, error) {
	for _, sc := range []system.Scenario{system.AllDRAM, system.WeightStationary, system.OnChipIO} {
		if sc.String() == name {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scenario %q", name)
}

// layersOf is the layer list a request with the given Layers field
// evaluates.
func layersOf(net *workload.Network, n int) []workload.Layer {
	if n > 0 && n < len(net.Layers) {
		return net.Layers[:n]
	}
	return net.Layers
}
