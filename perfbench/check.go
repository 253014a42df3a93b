package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/serve"
)

// The program's results are reproducible only up to rounding:
// core.EvaluateMapping sums per-tensor energies in Go map order, so two
// evaluations of one request can differ in the last bits of energy
// (about 2e-16 relative). Integer outputs must match exactly; energy and
// time must agree within ulpTolerance relative.
const ulpTolerance = 64 * 0x1p-52 // about 1.4e-14

// item is the checked part of one evaluation result.
type item struct {
	Tag      string  `json:"tag"`
	MACs     int64   `json:"macs"`
	Mappings int64   `json:"mappings"`
	EnergyJ  float64 `json:"energy_j"`
	TimeSec  float64 `json:"time_sec"`
}

func itemOf(r *serve.Result) item {
	return item{Tag: r.Tag, MACs: r.MACs, Mappings: r.MappingsEvaluated, EnergyJ: r.EnergyJ, TimeSec: r.TimeSec}
}

func itemsOf(rs []*serve.Result) []item {
	out := make([]item, len(rs))
	for i, r := range rs {
		if r != nil {
			out[i] = itemOf(r)
		}
	}
	return out
}

// agree reports whether two floats agree within ulpTolerance relative.
func agree(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= ulpTolerance*math.Max(math.Abs(a), math.Abs(b))
}

// diff returns why two items disagree, or "" when they agree.
func diff(want, got item) string {
	switch {
	case want.Tag != got.Tag:
		return fmt.Sprintf("tag %q != %q", got.Tag, want.Tag)
	case want.MACs != got.MACs:
		return fmt.Sprintf("%s: macs %d != %d", want.Tag, got.MACs, want.MACs)
	case want.Mappings != got.Mappings:
		return fmt.Sprintf("%s: mappings %d != %d", want.Tag, got.Mappings, want.Mappings)
	case !agree(want.EnergyJ, got.EnergyJ):
		return fmt.Sprintf("%s: energy %.17g != %.17g", want.Tag, got.EnergyJ, want.EnergyJ)
	case !agree(want.TimeSec, got.TimeSec):
		return fmt.Sprintf("%s: time %.17g != %.17g", want.Tag, got.TimeSec, want.TimeSec)
	}
	return ""
}

// checker counts operations and failures. Failures are failed calls,
// error-bearing results, non-succeeded jobs and output mismatches.
type checker struct {
	mu                sync.Mutex
	attempted, failed int
	first             []string // the first few failures, for stderr
}

func (c *checker) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

// mismatch records a failed check that is not tied to one operation.
func (c *checker) mismatch(format string, args ...any) {
	c.attempt()
	c.fail(format, args...)
}

// same compares two result lists item by item; each disagreeing item
// counts as one failure.
func (c *checker) same(what string, want, got []item) {
	if len(want) != len(got) {
		c.fail("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if d := diff(want[i], got[i]); d != "" {
			c.fail("%s: %s", what, d)
		}
	}
}

// reference is a checked-in output of the default seed.
type reference struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Items    []item `json:"items"`
	// Compiles is the exact cache compile count of a cold sweep
	// (cold-start only).
	Compiles uint64 `json:"compiles,omitempty"`
}

// checkReference compares a default-seed run against reference/<name>.json,
// or rewrites that file when --write-reference is set.
func (b *bench) checkReference(ref reference) error {
	if b.seed != defaultSeed {
		return nil
	}
	ref.Workload, ref.Seed = b.name, b.seed
	path := filepath.Join(b.refDir, b.name+".json")
	if b.writeRef {
		data, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want reference
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	b.chk.same("reference", want.Items, ref.Items)
	if want.Compiles != ref.Compiles {
		b.chk.fail("reference: %d compiles, want %d", ref.Compiles, want.Compiles)
	}
	return nil
}

// selfTest proves the output check has the intended resolution: a result
// perturbed by 1e-9 relative, or with an integer off by one, fails it,
// and ulp-level noise passes it.
func selfTest() error {
	base := item{Tag: "macro-d/vit-base", MACs: 1 << 30, Mappings: 1234, EnergyJ: 0.00078172121685350757, TimeSec: 0.0123}
	noisy := base
	noisy.EnergyJ = math.Nextafter(math.Nextafter(base.EnergyJ, 1), 1)
	noisy.TimeSec = math.Nextafter(base.TimeSec, 0)
	if d := diff(base, noisy); d != "" {
		return errors.New("ulp-level noise rejected: " + d)
	}
	for _, bad := range []func(*item){
		func(it *item) { it.EnergyJ *= 1 + 1e-9 },
		func(it *item) { it.TimeSec *= 1 - 1e-9 },
		func(it *item) { it.MACs++ },
		func(it *item) { it.Mappings-- },
	} {
		p := base
		bad(&p)
		if diff(base, p) == "" {
			return fmt.Errorf("perturbed result %+v accepted", p)
		}
	}
	return nil
}
