package serve

import (
	"math"
	"sync"
	"time"
)

// searchTuner picks the per-layer mapping-search fan-out from measured
// candidate cost with a feedback loop: every completed search reports
// (evaluated, elapsed, width), the tuner folds the implied per-candidate
// cost into an EWMA keyed by (arch, layer), and the next search over that
// layer gets a width sized to bring the whole search near targetLayerSec.
//
// The tuner only ever changes *width*, never results: parallel search is
// bit-identical to serial at any width, so adaptation carries no
// reproducibility hazard. Unknown layers start serial — the first search
// doubles as the measurement probe, and a first request is dominated by
// the layer-context compile anyway.
//
// Cost is recorded as elapsed x width (approximate total work), not wall
// time, so a wide search does not report an artificially low
// per-candidate cost and oscillate the loop.
type searchTuner struct {
	mu    sync.Mutex
	ewma  map[string]float64 // per tunerKey: EWMA of seconds per candidate
	plans uint64             // width decisions made
}

const (
	// tunerAlpha weights the newest observation in the EWMA.
	tunerAlpha = 0.4
	// fanOutFloorSec is the per-candidate cost below which the channel
	// handoff to a worker pool costs more than it saves; cheaper layers
	// stay serial no matter the budget.
	fanOutFloorSec = 5e-6
	// targetLayerSec is the per-layer search latency the width aims for.
	targetLayerSec = 1500e-6
)

// tunerKey identifies a layer's cost class. Arch and layer names are not
// globally unique across hand-written specs, but a collision only blends
// two EWMAs — the tuner is a latency heuristic, never a correctness
// input.
func tunerKey(arch, layer string) string { return arch + "|" + layer }

// width picks the fan-out for one layer search over `budget` candidates,
// clamped to [1, maxWidth].
func (t *searchTuner) width(key string, budget, maxWidth int) int {
	if maxWidth < 1 {
		maxWidth = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.plans++
	per, ok := t.ewma[key]
	if !ok || per < fanOutFloorSec {
		return 1
	}
	w := int(math.Ceil(per * float64(budget) / targetLayerSec))
	if w < 1 {
		w = 1
	}
	if w > maxWidth {
		w = maxWidth
	}
	return w
}

// observe folds one completed search into the layer's EWMA.
func (t *searchTuner) observe(key string, evaluated, width int, elapsed time.Duration) {
	if evaluated <= 0 {
		return
	}
	if width < 1 {
		width = 1
	}
	per := elapsed.Seconds() * float64(width) / float64(evaluated)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ewma == nil {
		t.ewma = make(map[string]float64)
	}
	if old, seen := t.ewma[key]; seen {
		per = (1-tunerAlpha)*old + tunerAlpha*per
	}
	t.ewma[key] = per
}

// stats snapshots the tuner for /healthz.
func (t *searchTuner) stats() (plans uint64, layers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.plans, len(t.ewma)
}
