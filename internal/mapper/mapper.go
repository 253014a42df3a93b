// Package mapper searches the mapping space: which loop factors go to
// which hierarchy levels (paper §II-B "Mapping", §III-A "mapping search").
// It provides a deterministic utilization-greedy mapping, seeded random
// sampling, and a Search that evaluates candidates with a caller-supplied
// cost function — the role Timeloop's mapper plays under CiMLoop, where
// thousands of mappings are evaluated per (architecture, layer) pair
// (Table II).
package mapper

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/tensor"
)

// Options configures mapping generation.
type Options struct {
	// MaxMappings caps the number of candidates generated by Sample.
	MaxMappings int
	// Seed makes sampling deterministic.
	Seed int64
	// Fixed pins loops to levels (e.g. bit-slice dims onto a column
	// mesh); generators never move them. Keyed by level index.
	Fixed map[int][]mapping.Loop
	// SpatialPrefs orders dims for greedy spatial placement per spatial
	// level index. Dims not listed are not placed spatially there.
	SpatialPrefs map[int][]string
	// TemporalLevel selects the storage level that receives leftover
	// temporal loops. Zero or negative (including the zero value) means
	// "outermost storage level"; an explicit level 0 cannot be requested
	// through this field, which is harmless because by convention level 0
	// is the outermost storage level whenever it is a storage level.
	TemporalLevel int
	// TemporalTargets routes specific dims' leftover temporal loops to
	// specific storage levels (e.g. pixel dims cached at a global buffer
	// while weight dims stream from DRAM). Dims not listed use
	// TemporalLevel.
	TemporalTargets map[string]int
	// InnerDims are placed innermost at the temporal level (e.g. reduction
	// dims, so outputs accumulate close to compute). Ordered innermost
	// first.
	InnerDims []string
	// OuterDims are placed outermost (e.g. weight-slice passes, so each
	// pass re-programs weights once instead of per inner iteration).
	// Ordered outermost first.
	OuterDims []string
}

// remainingBound returns the per-dim bound still to cover after the fixed
// loops are applied (ceiling division).
func remainingBound(e *tensor.Einsum, fixed map[int][]mapping.Loop) (map[string]int, error) {
	rem := make(map[string]int, len(e.Dims))
	for _, d := range e.Dims {
		rem[d.Name] = d.Bound
	}
	for lvl, loops := range fixed {
		for _, l := range loops {
			if l.Factor <= 0 {
				return nil, fmt.Errorf("mapper: fixed loop %s at level %d has factor %d", l.Dim, lvl, l.Factor)
			}
			b, ok := rem[l.Dim]
			if !ok {
				return nil, fmt.Errorf("mapper: fixed loop over unknown dim %q", l.Dim)
			}
			rem[l.Dim] = ceilDiv(b, l.Factor)
		}
	}
	return rem, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// meshBudget returns the spatial capacity left at each spatial level after
// fixed loops.
func meshBudget(levels []spec.Level, fixed map[int][]mapping.Loop) map[int]int {
	budget := make(map[int]int)
	for i := range levels {
		if levels[i].Kind == spec.SpatialLevel {
			budget[i] = levels[i].Mesh
		}
	}
	for lvl, loops := range fixed {
		for _, l := range loops {
			if _, ok := budget[lvl]; ok {
				budget[lvl] /= l.Factor
			}
		}
	}
	return budget
}

// storageLevels lists storage level indices, outermost first.
func storageLevels(levels []spec.Level) []int {
	var out []int
	for i := range levels {
		if levels[i].Kind == spec.StorageLevel {
			out = append(out, i)
		}
	}
	return out
}

// newMapping seeds a mapping with the fixed loops.
func newMapping(levels []spec.Level, fixed map[int][]mapping.Loop) *mapping.Mapping {
	m := &mapping.Mapping{LevelLoops: make([][]mapping.Loop, len(levels))}
	for lvl, loops := range fixed {
		m.LevelLoops[lvl] = append(m.LevelLoops[lvl], loops...)
	}
	return m
}

// Greedy builds one deterministic mapping: spatial levels are filled
// according to SpatialPrefs (padding to fill the mesh when a dim does not
// divide), and every leftover factor becomes a temporal loop at the chosen
// temporal level, InnerDims innermost.
func Greedy(levels []spec.Level, e *tensor.Einsum, opts Options) (*mapping.Mapping, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	rem, err := remainingBound(e, opts.Fixed)
	if err != nil {
		return nil, err
	}
	budget := meshBudget(levels, opts.Fixed)
	m := newMapping(levels, opts.Fixed)

	// Spatial placement, innermost spatial level first (closest to
	// compute fills up first — it is the CiM array).
	var spatialIdx []int
	for i := range budget {
		spatialIdx = append(spatialIdx, i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(spatialIdx)))
	for _, li := range spatialIdx {
		prefs := opts.SpatialPrefs[li]
		for _, d := range prefs {
			// Preferences are architecture-static; dims absent from this
			// workload (e.g. R/S on a matmul) are skipped.
			b, ok := rem[d]
			if !ok {
				continue
			}
			room := budget[li]
			if room <= 1 || b <= 1 {
				continue
			}
			f := b
			if f > room {
				f = room
			}
			m.LevelLoops[li] = append(m.LevelLoops[li], mapping.Loop{Dim: d, Factor: f})
			budget[li] = room / f
			rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal leftovers.
	tl, err := temporalTarget(levels, opts)
	if err != nil {
		return nil, err
	}
	rank := make(map[string]int, len(opts.InnerDims)+len(opts.OuterDims))
	for i, d := range opts.InnerDims {
		rank[d] = i + 1
	}
	for i, d := range opts.OuterDims {
		rank[d] = -len(opts.OuterDims) + i
	}
	var dims []string
	for d := range rem {
		if rem[d] > 1 {
			dims = append(dims, d)
		}
	}
	// Outermost first: OuterDims, then unlisted dims (sorted for
	// determinism), then InnerDims in reverse preference.
	sort.Slice(dims, func(i, j int) bool {
		pi, pj := rank[dims[i]], rank[dims[j]]
		if pi != pj {
			return pi < pj
		}
		return dims[i] < dims[j]
	})
	storage := map[int]bool{}
	for _, i := range storageLevels(levels) {
		storage[i] = true
	}
	for _, d := range dims {
		target := tl
		if t, ok := opts.TemporalTargets[d]; ok {
			if !storage[t] {
				return nil, fmt.Errorf("mapper: temporal target %d for dim %s is not a storage level", t, d)
			}
			target = t
		}
		m.LevelLoops[target] = append(m.LevelLoops[target], mapping.Loop{Dim: d, Factor: rem[d]})
	}
	if err := mapping.Validate(levels, e, m); err != nil {
		return nil, fmt.Errorf("mapper: greedy produced invalid mapping: %w", err)
	}
	return m, nil
}

func temporalTarget(levels []spec.Level, opts Options) (int, error) {
	sl := storageLevels(levels)
	if len(sl) == 0 {
		return 0, errors.New("mapper: hierarchy has no storage level for temporal loops")
	}
	// TemporalLevel <= 0 (including the unset zero value) selects the
	// outermost storage level.
	tl := opts.TemporalLevel
	if tl <= 0 {
		return sl[0], nil
	}
	for _, i := range sl {
		if i == tl {
			return tl, nil
		}
	}
	return 0, fmt.Errorf("mapper: temporal level %d is not a storage level", tl)
}

// Sample generates up to MaxMappings distinct valid mappings by seeded
// random factor splitting and permutation, always including the Greedy
// mapping first.
func Sample(levels []spec.Level, e *tensor.Einsum, opts Options) ([]*mapping.Mapping, error) {
	var out []*mapping.Mapping
	err := sampleSeq(levels, e, opts, func(_ int, m *mapping.Mapping) bool {
		out = append(out, m)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sampleSeq generates the exact Sample candidate sequence one mapping at a
// time, calling yield with each candidate's index; yield returning false
// stops generation early. SearchParallelCtx feeds its worker pool from
// this generator so candidate evaluation overlaps generation instead of
// waiting for the whole sample.
func sampleSeq(levels []spec.Level, e *tensor.Einsum, opts Options, yield func(int, *mapping.Mapping) bool) error {
	if opts.MaxMappings <= 0 {
		opts.MaxMappings = 100
	}
	greedy, err := Greedy(levels, e, opts)
	if err != nil {
		return err
	}
	if !yield(0, greedy) {
		return nil
	}
	n := 1
	seen := map[string]bool{greedy.String(): true}
	rng := rand.New(rand.NewSource(opts.Seed))
	sl := storageLevels(levels)
	tries := 0
	for n < opts.MaxMappings && tries < opts.MaxMappings*20 {
		tries++
		m, ok := sampleOne(levels, e, opts, rng, sl)
		if !ok {
			continue
		}
		key := m.String()
		if seen[key] {
			continue
		}
		if mapping.Validate(levels, e, m) != nil {
			continue
		}
		seen[key] = true
		if !yield(n, m) {
			return nil
		}
		n++
	}
	return nil
}

// sampleOne draws one random candidate (possibly invalid; caller checks).
func sampleOne(levels []spec.Level, e *tensor.Einsum, opts Options, rng *rand.Rand, sl []int) (*mapping.Mapping, bool) {
	rem, err := remainingBound(e, opts.Fixed)
	if err != nil {
		return nil, false
	}
	budget := meshBudget(levels, opts.Fixed)
	m := newMapping(levels, opts.Fixed)

	// Spatial: random subset of preferred dims with random factors.
	var spatialIdx []int
	for i := range budget {
		spatialIdx = append(spatialIdx, i)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(spatialIdx)))
	for _, li := range spatialIdx {
		for _, d := range opts.SpatialPrefs[li] {
			b, ok := rem[d]
			if !ok {
				continue
			}
			room := budget[li]
			if room <= 1 || b <= 1 {
				continue
			}
			f := randomFactor(rng, b, room)
			if f <= 1 {
				continue
			}
			m.LevelLoops[li] = append(m.LevelLoops[li], mapping.Loop{Dim: d, Factor: f})
			budget[li] = room / f
			rem[d] = ceilDiv(b, f)
		}
	}

	// Temporal: split every remaining dim randomly across storage levels
	// (dims visited in declaration order for determinism).
	for _, dim := range e.Dims {
		d := dim.Name
		b := rem[d]
		if b <= 1 {
			continue
		}
		for b > 1 {
			li := sl[rng.Intn(len(sl))]
			f := randomFactor(rng, b, b)
			if f <= 1 {
				f = b
			}
			m.LevelLoops[li] = append(m.LevelLoops[li], mapping.Loop{Dim: d, Factor: f})
			b = ceilDiv(b, f)
		}
	}
	// Random permutation within each temporal level.
	for _, li := range sl {
		loops := m.LevelLoops[li]
		rng.Shuffle(len(loops), func(i, j int) { loops[i], loops[j] = loops[j], loops[i] })
	}
	return m, true
}

// randomFactor picks a random divisor of b capped at limit, occasionally
// the limit itself (a padded split). The padded candidate is only added
// when limit does not already divide b — when it does, the divisor loop
// has already collected it, and appending it again would double its
// selection weight.
func randomFactor(rng *rand.Rand, b, limit int) int {
	if limit > b {
		limit = b
	}
	var cands []int
	for d := 1; d <= limit; d++ {
		if b%d == 0 {
			cands = append(cands, d)
		}
	}
	if limit < b && b%limit != 0 && (len(cands) == 0 || rng.Intn(4) == 0) {
		cands = append(cands, limit) // padded split
	}
	if len(cands) == 0 {
		return 1
	}
	return cands[rng.Intn(len(cands))]
}

// Result pairs a mapping with its evaluated cost.
type Result struct {
	Mapping *mapping.Mapping
	Cost    float64
}

// SearchCtx generates candidates and returns the one minimizing the
// caller's cost function, along with the number of mappings evaluated.
// Candidates whose evaluation fails are skipped; if every candidate
// fails, the first error is returned. Cancellation is checked before
// each candidate evaluation, so a cancelled search returns ctx.Err()
// promptly instead of finishing the whole sample.
func SearchCtx(ctx context.Context, levels []spec.Level, e *tensor.Einsum, opts Options, cost func(*mapping.Mapping) (float64, error)) (*Result, int, error) {
	cands, err := Sample(levels, e, opts)
	if err != nil {
		return nil, 0, err
	}
	var best *Result
	var firstErr error
	evaluated := 0
	for _, m := range cands {
		if err := ctx.Err(); err != nil {
			return nil, evaluated, err
		}
		c, err := cost(m)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		evaluated++
		if best == nil || c < best.Cost {
			best = &Result{Mapping: m, Cost: c}
		}
	}
	if best == nil {
		if firstErr != nil {
			return nil, 0, firstErr
		}
		return nil, 0, errors.New("mapper: no valid mapping found")
	}
	return best, evaluated, nil
}
