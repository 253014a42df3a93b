package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/valuesim"
	"repro/internal/workload"
)

// modelError measures the statistical model's energy error against the
// value-level simulator on the Fig. 6 configuration (a 64x32 base macro
// with a value-aware ADC, every ResNet18 layer, 32 simulated steps, seed
// 17), outside any timed phase. The code is deterministic, so the number
// repeats; it is reported beside every speed figure. It also times one
// value-level simulation as Table II does, for the speed ratio.
func (b *bench) modelError() error {
	arch, err := macros.Base(macros.Config{Rows: 64, Cols: 32, ValueAwareADC: true})
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(arch)
	if err != nil {
		return err
	}
	cfg := valuesim.Config{Steps: 32, Seed: 17}
	net := workload.ResNet18()
	sum := 0.0
	for _, l := range net.Layers {
		sp := b.tr.begin("valuesim.Compare", nil)
		cmp, err := valuesim.Compare(eng, l, cfg, nil, nil)
		sp.end()
		if err != nil {
			return fmt.Errorf("fig6 layer %s: %w", l.Name, err)
		}
		sum += cmp.RelError
	}
	b.e2e["model_rel_error_pct"] = 100 * sum / float64(len(net.Layers))

	t := time.Now()
	if _, _, _, err := valuesim.Simulate(eng, net.Layers[5], cfg); err != nil {
		return err
	}
	sim := time.Since(t).Seconds()
	b.layer["valuesim.simulate_s"] = sim
	// Table II: statistical mappings costed per second over value-level
	// layer simulations per second.
	b.layer["valuesim.table2_ratio"] = b.e2e["mappings_per_s"] * sim
	return nil
}
