package sim

import (
	"testing"

	"repro/internal/obs"
)

// TestUnmetCounterFollowsTotal reads sim_requests_unmet_total, the
// supply-shortage signal: with the fleet emptied at the evening rush,
// requests go unmet, and the counter moves by exactly TotalUnmet's growth.
func TestUnmetCounterFollowsTotal(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 23, StartTime: 17 * 3600, Workers: 1})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	unmet := reg.Counter("sim_requests_unmet_total")
	for i := 0; i < 60; i++ {
		w.Step()
	}
	c0, t0 := unmet.Value(), w.TotalUnmet
	clearFleet(w)
	for i := 0; i < 60; i++ {
		w.Step()
	}
	grew := w.TotalUnmet - t0
	if grew <= 0 {
		t.Fatalf("TotalUnmet grew by %d over a minute with no fleet; the test exercised nothing", grew)
	}
	if moved := unmet.Value() - c0; moved != grew {
		t.Fatalf("sim_requests_unmet_total moved by %d, TotalUnmet by %d", moved, grew)
	}
}
