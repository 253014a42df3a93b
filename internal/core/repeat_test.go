package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/mapper"
	"repro/internal/workload"
)

// TestEvaluateMappingRepeatable checks that costing one mapping is a pure
// function: re-evaluating the same (layer, mapping) pair gives a
// bit-identical Energy and TimeSec every time. A parallel search
// re-evaluates its winner after the fan-out, so a cost that drifts by an
// ulp between evaluations breaks serial/parallel bit-identity. The inputs
// are full-size macros on real network layers, where each level carries
// several tensors' terms and summation order shows.
func TestEvaluateMappingRepeatable(t *testing.T) {
	const (
		layers   = 3
		mappings = 16
		repeats  = 30
	)
	for _, name := range []string{"base", "macro-b"} {
		arch, err := macros.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.NewEngine(arch)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range workload.ResNet18().Layers[:layers] {
			lctx, err := eng.PrepareLayer(l)
			if err != nil {
				t.Fatal(err)
			}
			cands, err := mapper.Sample(arch.Levels, lctx.Sliced, arch.MapperOptions(mappings, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range cands {
				first, err := eng.EvaluateMapping(lctx, m)
				if err != nil {
					continue
				}
				for r := 1; r < repeats; r++ {
					got, err := eng.EvaluateMapping(lctx, m)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Energy) != math.Float64bits(first.Energy) ||
						math.Float64bits(got.TimeSec) != math.Float64bits(first.TimeSec) {
						t.Fatalf("%s/%s mapping %s: evaluation %d gave %.17g J %.17g s, first gave %.17g J %.17g s",
							name, l.Name, m, r, got.Energy, got.TimeSec, first.Energy, first.TimeSec)
					}
				}
			}
		}
	}
}
