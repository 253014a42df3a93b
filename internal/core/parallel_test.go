package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/workload"
)

// TestSearchLayerParallelMatchesSerial is the engine-level equivalence
// property: the parallel per-layer search returns the identical best
// mapping, energy, and evaluated count as the serial search across seeds
// and worker counts — every metric, not just the winner's energy. Besides
// the toy layer it runs the full-size base macro on ResNet18's conv1,
// where every level sums several tensors' terms, so any evaluation-order
// rounding would show as an ulp of difference.
func TestSearchLayerParallelMatchesSerial(t *testing.T) {
	toyEng, toyCtx := cancelTestEngine(t)
	baseEng, conv1 := baseConv1(t)
	for _, in := range []struct {
		name string
		eng  *core.Engine
		lctx *core.LayerContext
	}{
		{"toy", toyEng, toyCtx},
		{"base/resnet18/conv1", baseEng, conv1},
	} {
		for seed := int64(0); seed < 5; seed++ {
			want, wantN, err := in.eng.SearchLayerOptsCtx(context.Background(), in.lctx,
				core.SearchOptions{MaxMappings: 48, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, gotN, err := in.eng.SearchLayerOptsCtx(context.Background(), in.lctx,
					core.SearchOptions{MaxMappings: 48, Seed: seed, SearchWorkers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("%s seed %d workers %d: evaluated %d vs %d", in.name, seed, workers, gotN, wantN)
				}
				if got.Energy != want.Energy || got.Cycles != want.Cycles ||
					got.Utilization != want.Utilization || got.TimeSec != want.TimeSec ||
					got.Mapping.String() != want.Mapping.String() {
					t.Fatalf("%s seed %d workers %d diverged:\n  parallel %.17g J %d cyc %s\n  serial   %.17g J %d cyc %s",
						in.name, seed, workers, got.Energy, got.Cycles, got.Mapping,
						want.Energy, want.Cycles, want.Mapping)
				}
			}
		}
	}
}

// baseConv1 prepares ResNet18's first layer on the full-size base macro.
func baseConv1(t *testing.T) (*core.Engine, *core.LayerContext) {
	t.Helper()
	arch, err := macros.Base(macros.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	lctx, err := eng.PrepareLayer(workload.ResNet18().Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	return eng, lctx
}

// TestEvaluateNetworkParallelMatchesSerial checks the network roll-up —
// energies, times, per-layer mappings, and the evaluated count — is
// unchanged by intra-layer parallelism.
func TestEvaluateNetworkParallelMatchesSerial(t *testing.T) {
	arch, err := macros.Base(macros.Config{Rows: 16, Cols: 16})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.Toy()
	want, err := eng.EvaluateNetworkOptsCtx(context.Background(), net,
		core.SearchOptions{MaxMappings: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.EvaluateNetworkOptsCtx(context.Background(), net,
		core.SearchOptions{MaxMappings: 16, Seed: 7, SearchWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Energy || got.TimeSec != want.TimeSec ||
		got.MACs != want.MACs || got.MappingsEvaluated != want.MappingsEvaluated {
		t.Fatalf("parallel network result diverged: %+v vs %+v", got, want)
	}
	if want.MappingsEvaluated == 0 {
		t.Fatal("MappingsEvaluated not populated")
	}
	for i := range want.PerLayer {
		if got.PerLayer[i].Mapping.String() != want.PerLayer[i].Mapping.String() {
			t.Fatalf("layer %d picked %s, serial picks %s",
				i, got.PerLayer[i].Mapping, want.PerLayer[i].Mapping)
		}
	}
}

// TestSearchLayerParallelCancelled checks an already-cancelled context
// short-circuits the parallel search like the serial one.
func TestSearchLayerParallelCancelled(t *testing.T) {
	eng, lctx := cancelTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctx,
		core.SearchOptions{MaxMappings: 64, Seed: 1, SearchWorkers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evaluated != 0 {
		t.Fatalf("evaluated %d mappings after cancellation, want 0", evaluated)
	}
}

// TestSearchLayerParallelStopsMidSearch is the parallel twin of the serial
// countdown test: cancellation observed mid-fan-out aborts the search
// before the budget is exhausted.
func TestSearchLayerParallelStopsMidSearch(t *testing.T) {
	eng, lctx := cancelTestEngine(t)
	const budget = 64
	_, full, err := eng.SearchLayerOptsCtx(context.Background(), lctx,
		core.SearchOptions{MaxMappings: budget, Seed: 1, SearchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if full <= 8 {
		t.Skipf("search only evaluates %d candidates; cannot observe an early stop", full)
	}
	ctx := &countdownCtx{Context: context.Background(), left: 3}
	_, evaluated, err := eng.SearchLayerOptsCtx(ctx, lctx,
		core.SearchOptions{MaxMappings: budget, Seed: 1, SearchWorkers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !ctx.fired {
		t.Fatal("parallel search never polled the context")
	}
	if evaluated >= full {
		t.Fatalf("evaluated %d of %d candidates despite mid-search cancellation", evaluated, full)
	}
}
