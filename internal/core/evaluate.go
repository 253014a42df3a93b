package core

import (
	"context"
	"fmt"

	"repro/internal/mapper"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// LevelEnergy is the energy attributed to one level for one layer.
type LevelEnergy struct {
	Name     string
	Class    string
	Kind     spec.LevelKind
	ByTensor map[tensor.Kind]float64
	Total    float64
}

// Result is the evaluation of one (layer, mapping) pair.
type Result struct {
	Arch    string
	Layer   string
	Mapping *mapping.Mapping

	Energy float64 // joules for the whole layer
	Levels []LevelEnergy

	Cycles      int64
	TimeSec     float64
	MACs        int64 // actual workload MACs (unsliced definition)
	PaddedMACs  int64 // hardware MAC-slice activations
	Utilization float64
	AreaUm2     float64
	// LeakageJ is the buffers' static energy over the layer runtime
	// (included in Energy).
	LeakageJ float64
	// DRAMLimited reports that off-chip bandwidth, not compute, set the
	// layer's runtime.
	DRAMLimited bool
}

// OPS returns the operation count (2 ops per MAC, the convention of the
// paper's TOPS/W and GOPS numbers).
func (r *Result) OPS() float64 { return 2 * float64(r.MACs) }

// TOPSPerW returns energy efficiency in tera-operations per watt.
func (r *Result) TOPSPerW() float64 {
	if r.Energy <= 0 {
		return 0
	}
	return r.OPS() / r.Energy / 1e12
}

// GOPS returns throughput in giga-operations per second.
func (r *Result) GOPS() float64 {
	if r.TimeSec <= 0 {
		return 0
	}
	return r.OPS() / r.TimeSec / 1e9
}

// EnergyPerMAC returns joules per actual MAC.
func (r *Result) EnergyPerMAC() float64 {
	if r.MACs == 0 {
		return 0
	}
	return r.Energy / float64(r.MACs)
}

// tensorKinds fixes the order EvaluateMapping sums per-tensor terms in.
// Floating-point addition is not associative, so ranging over a
// per-level counts map (random order) would let the same mapping cost a
// few ulp differently from one evaluation to the next.
var tensorKinds = [...]tensor.Kind{tensor.Input, tensor.Weight, tensor.Output}

// EvaluateMapping computes energy, cycles, and throughput of one mapping
// using the layer context's precomputed per-action energies (Algorithm 1
// lines 8–10: only the count analysis runs per mapping).
func (e *Engine) EvaluateMapping(ctx *LayerContext, m *mapping.Mapping) (*Result, error) {
	counts, err := mapping.Analyze(e.arch.Levels, ctx.Sliced, m)
	if err != nil {
		return nil, err
	}
	share := int64(e.arch.adcShare())
	res := &Result{
		Arch:        e.arch.Name,
		Layer:       ctx.Layer.Name,
		Mapping:     m,
		Cycles:      counts.Cycles * share, // ADC sharing serializes strobes
		MACs:        ctx.Layer.Op.MACs(),
		PaddedMACs:  counts.MACs,
		Utilization: counts.Utilization,
		AreaUm2:     e.area,
	}
	res.TimeSec = float64(res.Cycles) / e.clock
	// Off-chip bandwidth can cap throughput: a layer moving more DRAM
	// bits than the channel delivers in the compute time is DRAM-bound.
	for i := range e.bindings {
		b := &e.bindings[i]
		if b.dram == nil {
			continue
		}
		var bits float64
		for _, t := range tensorKinds {
			tc := counts.PerLevel[i][t]
			if tc == nil {
				continue
			}
			per := float64(e.arch.InputBits)
			switch t {
			case tensor.Weight:
				per = float64(e.arch.WeightBits)
			case tensor.Output:
				per = float64(e.arch.InputBits + e.arch.WeightBits)
			}
			bits += float64(tc.Reads+tc.Writes) * per
		}
		if bw := b.dram.BandwidthBitsPerSec(); bw > 0 {
			if dramTime := bits / bw; dramTime > res.TimeSec {
				res.TimeSec = dramTime
				res.DRAMLimited = true
			}
		}
	}
	railsIn := float64(ctx.inputRails)
	railsW := float64(ctx.weightRails)

	for i := range e.bindings {
		b := &e.bindings[i]
		le := LevelEnergy{
			Name:     b.level.Name,
			Class:    b.level.Class,
			Kind:     b.level.Kind,
			ByTensor: map[tensor.Kind]float64{},
		}
		// Idle-instance factor: the mapping uses MappedOutside[i] of the
		// level's physical instances; the rest still fire every strobe
		// with zero-valued operands (an underutilized array's idle
		// columns still convert — the Fig. 2a/14 penalty). The factor is
		// capped at the column-mux depth: macros share one converter per
		// ~8 columns, so unmapped columns beyond a mux group never strobe.
		const muxCap = 7.0
		idlePerMapped := 0.0
		if mapped := counts.MappedOutside[i]; mapped > 0 && b.instances > mapped {
			idlePerMapped = float64(b.instances-mapped) / float64(mapped)
			if idlePerMapped > muxCap {
				idlePerMapped = muxCap
			}
		}
		idleE := 0.0
		if b.model != nil && idlePerMapped > 0 {
			idleE = b.model.EnergyAt(0, 0, 0)
		}
		for _, t := range tensorKinds {
			tc := counts.PerLevel[i][t]
			ae, ok := ctx.energies[i][t]
			if tc == nil || !ok {
				continue
			}
			var joules float64
			switch b.level.Kind {
			case spec.StorageLevel:
				joules = float64(tc.Reads)*ae.read + float64(tc.Writes)*ae.write
			case spec.TransitLevel:
				mult := 1.0
				switch t {
				case tensor.Input:
					mult = railsIn
				case tensor.Weight, tensor.Output:
					mult = railsW
				}
				joules = float64(tc.Crossings) * (ae.cross*mult + idlePerMapped*idleE)
			case spec.ComputeLevel:
				if t == tensor.Weight {
					joules = float64(tc.Writes) * ae.write * railsW
				}
			}
			if joules != 0 {
				le.ByTensor[t] += joules
				le.Total += joules
			}
		}
		if b.level.Kind == spec.ComputeLevel {
			macE := ctx.energies[i][tensor.Output].cross
			joules := float64(counts.MACs) * (macE*railsIn*railsW + idlePerMapped*idleE)
			le.ByTensor[tensor.Output] += joules
			le.Total += joules
		}
		if b.buffer != nil && e.leakage > 0 {
			leak := b.buffer.LeakagePower() * float64(b.instances) * res.TimeSec
			le.Total += leak
			res.LeakageJ += leak
		}
		res.Levels = append(res.Levels, le)
		res.Energy += le.Total
	}
	return res, nil
}

// GreedyMapping returns the architecture's deterministic utilization-
// greedy mapping for a prepared layer (used when a fixed, reproducible
// schedule is needed, e.g. to match the value-level simulator).
func (e *Engine) GreedyMapping(ctx *LayerContext) (*mapping.Mapping, error) {
	opts := e.arch.MapperOptions(1, 0)
	return mapper.Greedy(e.arch.Levels, ctx.Sliced, opts)
}

// SearchOptions bundles the per-layer mapping-search knobs.
type SearchOptions struct {
	// MaxMappings caps the candidate budget (<=0 selects the mapper's
	// default).
	MaxMappings int
	// Seed drives candidate sampling.
	Seed int64
	// SearchWorkers fans candidate cost evaluations across a bounded
	// worker pool; <= 1 keeps the serial path. The parallel search returns
	// bit-identical results (deterministic minimum-cost, lowest-index
	// winner), so the knob trades goroutines for single-request latency
	// without changing any answer.
	SearchWorkers int
}

// SearchLayer finds the lowest-energy mapping for a prepared layer,
// evaluating up to maxMappings candidates. It returns the best result and
// the number of mappings evaluated.
func (e *Engine) SearchLayer(ctx *LayerContext, maxMappings int, seed int64) (*Result, int, error) {
	return e.SearchLayerCtx(context.Background(), ctx, maxMappings, seed)
}

// SearchLayerCtx is SearchLayer under a context: the candidate loop
// checks for cancellation before each mapping evaluation, so a cancelled
// or expired context makes the search return ctx.Err() promptly instead
// of finishing the whole budget. Deadlines and job cancellation in the
// serving layer reach in-flight work through this path.
func (e *Engine) SearchLayerCtx(ctx context.Context, lctx *LayerContext, maxMappings int, seed int64) (*Result, int, error) {
	return e.SearchLayerOptsCtx(ctx, lctx, SearchOptions{MaxMappings: maxMappings, Seed: seed})
}

// SearchLayerOptsCtx is the full form of the per-layer search: the
// SearchOptions select the budget, seed, and intra-search parallelism.
// With SearchWorkers > 1 candidate evaluations fan across a worker pool
// (mapper.SearchParallelCtx) and the winning mapping is re-evaluated once
// to build the Result — EvaluateMapping is deterministic, so the Result is
// bit-identical to the serial path's.
func (e *Engine) SearchLayerOptsCtx(ctx context.Context, lctx *LayerContext, so SearchOptions) (*Result, int, error) {
	opts := e.arch.MapperOptions(so.MaxMappings, so.Seed)
	if so.SearchWorkers > 1 {
		cost := func(m *mapping.Mapping) (float64, error) {
			r, err := e.EvaluateMapping(lctx, m)
			if err != nil {
				return 0, err
			}
			return r.Energy, nil
		}
		best, evaluated, err := mapper.SearchParallelCtx(ctx, e.arch.Levels, lctx.Sliced, opts, so.SearchWorkers, cost)
		if err != nil {
			return nil, 0, err
		}
		r, err := e.EvaluateMapping(lctx, best.Mapping)
		if err != nil {
			return nil, 0, err
		}
		return r, evaluated, nil
	}
	var best *Result
	cost := func(m *mapping.Mapping) (float64, error) {
		r, err := e.EvaluateMapping(lctx, m)
		if err != nil {
			return 0, err
		}
		if best == nil || r.Energy < best.Energy {
			best = r
		}
		return r.Energy, nil
	}
	_, evaluated, err := mapper.SearchCtx(ctx, e.arch.Levels, lctx.Sliced, opts, cost)
	if err != nil {
		return nil, 0, err
	}
	return best, evaluated, nil
}

// EvaluateLayer prepares a layer and searches for its best mapping.
func (e *Engine) EvaluateLayer(l workload.Layer, maxMappings int, seed int64) (*Result, error) {
	return e.EvaluateLayerCtx(context.Background(), l, maxMappings, seed)
}

// EvaluateLayerCtx is EvaluateLayer under a context (see SearchLayerCtx).
func (e *Engine) EvaluateLayerCtx(ctx context.Context, l workload.Layer, maxMappings int, seed int64) (*Result, error) {
	r, _, err := e.EvaluateLayerOptsCtx(ctx, l, SearchOptions{MaxMappings: maxMappings, Seed: seed})
	return r, err
}

// EvaluateLayerOptsCtx prepares a layer and searches its mapping space
// with the full option set, additionally returning the number of mappings
// evaluated.
func (e *Engine) EvaluateLayerOptsCtx(ctx context.Context, l workload.Layer, so SearchOptions) (*Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	lctx, err := e.PrepareLayer(l)
	if err != nil {
		return nil, 0, err
	}
	return e.SearchLayerOptsCtx(ctx, lctx, so)
}

// NetworkResult aggregates per-layer best results over a whole network.
type NetworkResult struct {
	Arch     string
	Network  string
	PerLayer []*Result // best mapping per distinct layer
	// Energy and TimeSec include layer repeats.
	Energy  float64
	TimeSec float64
	MACs    int64
	AreaUm2 float64
	// MappingsEvaluated counts candidate mappings costed across all
	// layers (not scaled by repeats) — the search-throughput denominator.
	MappingsEvaluated int64
}

// TOPSPerW returns network-level energy efficiency.
func (n *NetworkResult) TOPSPerW() float64 {
	if n.Energy <= 0 {
		return 0
	}
	return 2 * float64(n.MACs) / n.Energy / 1e12
}

// GOPS returns network-level throughput.
func (n *NetworkResult) GOPS() float64 {
	if n.TimeSec <= 0 {
		return 0
	}
	return 2 * float64(n.MACs) / n.TimeSec / 1e9
}

// EnergyPerMAC returns network-average joules per MAC.
func (n *NetworkResult) EnergyPerMAC() float64 {
	if n.MACs == 0 {
		return 0
	}
	return n.Energy / float64(n.MACs)
}

// EvaluateNetwork searches the best mapping for every layer of a network
// and aggregates energy and time across repeats.
func (e *Engine) EvaluateNetwork(n *workload.Network, maxMappings int, seed int64) (*NetworkResult, error) {
	return e.EvaluateNetworkCtx(context.Background(), n, maxMappings, seed)
}

// EvaluateNetworkCtx is EvaluateNetwork under a context: cancellation is
// checked between layers and inside each layer's mapping search.
func (e *Engine) EvaluateNetworkCtx(ctx context.Context, n *workload.Network, maxMappings int, seed int64) (*NetworkResult, error) {
	return e.EvaluateNetworkOptsCtx(ctx, n, SearchOptions{MaxMappings: maxMappings, Seed: seed})
}

// EvaluateNetworkOptsCtx is EvaluateNetwork with the full option set:
// SearchWorkers > 1 fans each layer's candidate evaluations across a
// worker pool for single-request latency, with results bit-identical to
// the serial path (layer i still searches with Seed+i).
func (e *Engine) EvaluateNetworkOptsCtx(ctx context.Context, n *workload.Network, so SearchOptions) (*NetworkResult, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	out := &NetworkResult{Arch: e.arch.Name, Network: n.Name, AreaUm2: e.area}
	for i, l := range n.Layers {
		lso := so
		lso.Seed = so.Seed + int64(i)
		r, evaluated, err := e.EvaluateLayerOptsCtx(ctx, l, lso)
		if err != nil {
			return nil, fmt.Errorf("core: network %q layer %q: %w", n.Name, l.Name, err)
		}
		out.PerLayer = append(out.PerLayer, r)
		rep := float64(l.Repeat)
		out.Energy += r.Energy * rep
		out.TimeSec += r.TimeSec * rep
		out.MACs += r.MACs * int64(l.Repeat)
		out.MappingsEvaluated += int64(evaluated)
	}
	return out, nil
}
