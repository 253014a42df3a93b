package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/serve"
	"repro/internal/system"
	"repro/internal/workload"
)

// traceLayers is the traced run's extra work for a workload served by
// in-process sweeps: the same requests evaluated one by one through
// Server.EvaluateCtx, re-driven through core and mapper, then sent over
// HTTP, each checked against the sweep results want.
func (b *bench) traceLayers(srv *serve.Server, reqs []serve.Request, want []item) error {
	inproc, err := b.inProcess(srv, reqs, nil, nil)
	if err != nil {
		return err
	}
	b.chk.same("EvaluateCtx vs sweep", want, inproc)
	got, err := b.redrive(reqs)
	if err != nil {
		return err
	}
	b.chk.same("core/mapper re-drive vs serve", want, got)
	b.httpProbe(srv, reqs, want)
	return nil
}

// directEval mirrors what the server does for one request set, calling
// core and mapper directly: engines and layer contexts are built once per
// fingerprint, like the server's cache, and every candidate is costed
// through a timed closure around Engine.EvaluateMapping.
type directEval struct {
	b        *bench
	engines  map[string]*core.Engine
	contexts map[string]*core.LayerContext
	// sample is a fixed set of (engine, context) pairs, the first few the
	// re-drive prepares, on which Analyze and EvaluateMapping are timed
	// call by call.
	sample []prepared

	compile, prepare, search, cost time.Duration
	prepareCalls, candidates       int64
	prepareAllocs                  uint64
}

type prepared struct {
	eng  *core.Engine
	lctx *core.LayerContext
}

// sampleContexts bounds the fixed candidate sample to this many layer
// contexts of sampleCandidates candidates each.
const (
	sampleContexts   = 8
	sampleCandidates = 32
)

// redrive evaluates reqs through macros.ByName, the system wrap,
// core.NewEngine, Engine.PrepareLayer and mapper.SearchCtx, and reports
// the per-layer core, mapper and mapping metrics.
func (b *bench) redrive(reqs []serve.Request) ([]item, error) {
	rd := &directEval{b: b, engines: map[string]*core.Engine{}, contexts: map[string]*core.LayerContext{}}
	out := make([]item, len(reqs))
	for i, r := range reqs {
		sp := b.tr.begin("bench.redrive", nil)
		it, err := rd.evaluate(r, sp)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("re-drive %s/%s: %w", r.Macro, r.Network, err)
		}
		out[i] = it
	}
	m := b.layer
	m["core.engine_compile_s"] = rd.compile.Seconds()
	m["core.prepare_s"] = rd.prepare.Seconds()
	m["core.prepare_calls"] = float64(rd.prepareCalls)
	if rd.prepareCalls > 0 {
		m["core.prepare_allocs"] = float64(rd.prepareAllocs) / float64(rd.prepareCalls)
	}
	m["core.search_s"] = rd.search.Seconds()
	m["mapper.candidates"] = float64(rd.candidates)
	if rd.candidates > 0 {
		m["core.evaluate_mapping_us"] = rd.cost.Seconds() * 1e6 / float64(rd.candidates)
		m["mapper.generate_us"] = (rd.search - rd.cost).Seconds() * 1e6 / float64(rd.candidates)
	}
	return out, rd.measureSample()
}

// evaluate is one request, mirroring serve.EvaluateCtx.
func (rd *directEval) evaluate(r serve.Request, parent *active) (item, error) {
	tr := rd.b.tr
	sp := tr.begin("macros.ByName", parent)
	arch, err := macros.ByName(r.Macro)
	sp.end()
	if err != nil {
		return item{}, err
	}
	if r.Scenario != "" {
		sc, err := scenarioByName(r.Scenario)
		if err != nil {
			return item{}, err
		}
		sp := tr.begin("system.Build", parent)
		arch, err = system.Build(arch, sc, system.Config{Macros: 1})
		sp.end()
		if err != nil {
			return item{}, err
		}
	}
	net, err := workload.ByName(r.Network)
	if err != nil {
		return item{}, err
	}
	fp := serve.ArchFingerprint(arch)
	eng := rd.engines[fp]
	if eng == nil {
		sp := tr.begin("core.NewEngine", parent)
		t := time.Now()
		eng, err = core.NewEngine(arch)
		rd.compile += time.Since(t)
		sp.end()
		if err != nil {
			return item{}, err
		}
		rd.engines[fp] = eng
	}
	res := item{Tag: arch.Name + "/" + net.Name}
	if r.Scenario != "" && !strings.Contains(arch.Name, r.Scenario) {
		res.Tag += "/" + r.Scenario
	}
	for i, l := range layersOf(net, r.Layers) {
		lctx, err := rd.context(eng, fp, l, parent)
		if err != nil {
			return item{}, err
		}
		best, evaluated, err := rd.searchLayer(eng, lctx, r.MaxMappings, r.Seed+int64(i), parent)
		if err != nil {
			return item{}, fmt.Errorf("layer %s: %w", l.Name, err)
		}
		rep := float64(l.Repeat)
		res.EnergyJ += best.Energy * rep
		res.TimeSec += best.TimeSec * rep
		res.MACs += best.MACs * int64(l.Repeat)
		res.Mappings += int64(evaluated)
	}
	return res, nil
}

// context returns the layer's prepared context, preparing it once.
func (rd *directEval) context(eng *core.Engine, fp string, l workload.Layer, parent *active) (*core.LayerContext, error) {
	key := fp + "|" + serve.LayerFingerprint(l)
	if lctx := rd.contexts[key]; lctx != nil {
		return lctx, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := rd.b.tr.begin("core.PrepareLayer", parent)
	t := time.Now()
	lctx, err := eng.PrepareLayer(l)
	rd.prepare += time.Since(t)
	runtime.ReadMemStats(&after)
	sp.end()
	if err != nil {
		return nil, err
	}
	rd.prepareCalls++
	rd.prepareAllocs += after.Mallocs - before.Mallocs
	rd.contexts[key] = lctx
	if len(rd.sample) < sampleContexts {
		rd.sample = append(rd.sample, prepared{eng, lctx})
	}
	return lctx, nil
}

// searchLayer is core.Engine.SearchLayerOptsCtx's serial path with the
// costing timed: the lowest-energy candidate wins, ties to the first.
func (rd *directEval) searchLayer(eng *core.Engine, lctx *core.LayerContext, budget int, seed int64, parent *active) (*core.Result, int, error) {
	tr := rd.b.tr
	sp := tr.begin("mapper.SearchCtx", parent)
	defer sp.end()
	var best *core.Result
	cost := func(m *mapping.Mapping) (float64, error) {
		csp := tr.begin("core.EvaluateMapping", sp)
		t := time.Now()
		r, err := eng.EvaluateMapping(lctx, m)
		rd.cost += time.Since(t)
		csp.end()
		rd.candidates++
		if err != nil {
			return 0, err
		}
		if best == nil || r.Energy < best.Energy {
			best = r
		}
		return r.Energy, nil
	}
	t := time.Now()
	_, evaluated, err := mapper.SearchCtx(context.Background(), eng.Arch().Levels, lctx.Sliced, eng.Arch().MapperOptions(budget, seed), cost)
	rd.search += time.Since(t)
	return best, evaluated, err
}

// measureSample times mapping.Analyze and Engine.EvaluateMapping call by
// call on the fixed candidate sample and counts their allocations.
func (rd *directEval) measureSample() error {
	var calls int64
	var analyze, evaluate time.Duration
	var analyzeAllocs, evaluateAllocs uint64
	for _, p := range rd.sample {
		arch := p.eng.Arch()
		cands, err := mapper.Sample(arch.Levels, p.lctx.Sliced, arch.MapperOptions(sampleCandidates, 0))
		if err != nil {
			return err
		}
		var before, mid, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t := time.Now()
		// A candidate the search would skip as invalid is still one timed
		// call, so errors are not checked here.
		for _, m := range cands {
			_, _ = mapping.Analyze(arch.Levels, p.lctx.Sliced, m)
		}
		analyze += time.Since(t)
		runtime.ReadMemStats(&mid)
		t = time.Now()
		for _, m := range cands {
			_, _ = p.eng.EvaluateMapping(p.lctx, m)
		}
		evaluate += time.Since(t)
		runtime.ReadMemStats(&after)
		calls += int64(len(cands))
		analyzeAllocs += mid.Mallocs - before.Mallocs
		evaluateAllocs += after.Mallocs - mid.Mallocs
	}
	if calls > 0 {
		n := float64(calls)
		rd.b.layer["mapping.analyze_us"] = analyze.Seconds() * 1e6 / n
		rd.b.layer["mapping.analyze_allocs"] = float64(analyzeAllocs) / n
		rd.b.layer["core.evaluate_mapping_allocs"] = float64(evaluateAllocs) / n
	}
	return nil
}
