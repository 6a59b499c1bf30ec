package surge

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// volatility sums |Δm| over an engine's history for one area.
func volatility(history [][]float64, area int) float64 {
	var v float64
	for i := 1; i < len(history); i++ {
		v += math.Abs(history[i][area] - history[i-1][area])
	}
	return v
}

// episodes counts distinct surge episodes (runs of m > 1) in the history.
func episodes(history [][]float64, area int) int {
	n := 0
	surging := false
	for _, snap := range history {
		if snap[area] > 1 && !surging {
			n++
			surging = true
		} else if snap[area] <= 1 {
			surging = false
		}
	}
	return n
}

func TestSmoothingReducesVolatility(t *testing.T) {
	// The paper's §8 proposal: a weighted moving average should make
	// surge changes less dramatic and episodes less fragmented.
	run := func(smoothing float64) *Engine {
		p := sim.SanFrancisco()
		w := sim.NewWorld(sim.Config{Profile: p, Seed: 99})
		e := New(w, Config{Params: p.Surge, Seed: 99, Smoothing: smoothing, KeepHistory: true})
		r := &runner{World: w, Engine: e}
		r.RunUntil(16 * 3600)
		return e
	}
	raw := run(0)
	smooth := run(0.6)
	if len(raw.History) != len(smooth.History) {
		t.Fatalf("history lengths differ: %d vs %d", len(raw.History), len(smooth.History))
	}
	var vRaw, vSmooth float64
	epRaw, epSmooth := 0, 0
	for a := 0; a < 4; a++ {
		vRaw += volatility(raw.History, a)
		vSmooth += volatility(smooth.History, a)
		epRaw += episodes(raw.History, a)
		epSmooth += episodes(smooth.History, a)
	}
	if vSmooth >= vRaw {
		t.Errorf("smoothing did not reduce volatility: %.1f vs %.1f", vSmooth, vRaw)
	}
	if epRaw == 0 {
		t.Fatal("no surge episodes at all")
	}
	// Fragmentation: smoothing merges flickering episodes.
	if epSmooth >= epRaw {
		t.Errorf("smoothing did not reduce episode count: %d vs %d", epSmooth, epRaw)
	}
}

func TestSmoothingStillTracksDemand(t *testing.T) {
	// Smoothing must lag, not erase, surge: a smoothed SF still surges a
	// substantial fraction of the time.
	p := sim.SanFrancisco()
	w := sim.NewWorld(sim.Config{Profile: p, Seed: 3})
	e := New(w, Config{Params: p.Surge, Seed: 3, Smoothing: 0.6, KeepHistory: true})
	r := &runner{World: w, Engine: e}
	r.RunUntil(12 * 3600)
	surged, total := 0, 0
	for _, snap := range e.History {
		for _, m := range snap {
			total++
			if m > 1 {
				surged++
			}
		}
	}
	frac := float64(surged) / float64(total)
	if frac < 0.2 {
		t.Errorf("smoothed SF surge fraction = %.2f, want > 0.2", frac)
	}
}

func TestSmoothingZeroIsIdentity(t *testing.T) {
	// Smoothing=0 must reproduce the unsmoothed engine exactly.
	run := func(smoothing float64) [][]float64 {
		p := sim.Manhattan()
		w := sim.NewWorld(sim.Config{Profile: p, Seed: 5})
		e := New(w, Config{Params: p.Surge, Seed: 5, Smoothing: smoothing, KeepHistory: true})
		r := &runner{World: w, Engine: e}
		r.RunUntil(2 * 3600)
		return e.History
	}
	a, b := run(0), run(0)
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("default engine not deterministic at %d/%d", i, j)
			}
		}
	}
}
