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

// TestStepSignalsFollowTicks reads sim_drivers_online,
// sim_step_duration_seconds and sim_phase_duration_seconds on an
// instrumented world: after n Steps the gauge equals OnlineDrivers(), the
// step histogram holds n observations and so does each phase's.
func TestStepSignalsFollowTicks(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 29, StartTime: 17 * 3600, Workers: 1})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	const n = 40
	for i := 0; i < n; i++ {
		w.Step()
	}
	if got, want := reg.Gauge("sim_drivers_online").Value(), float64(w.OnlineDrivers()); got != want || want == 0 {
		t.Errorf("sim_drivers_online = %v, OnlineDrivers() = %v", got, want)
	}
	if got := reg.Histogram("sim_step_duration_seconds", nil).Snapshot().Count; got != n {
		t.Errorf("sim_step_duration_seconds has %d observations after %d Steps", got, n)
	}
	for _, phase := range phaseNames {
		h := reg.Histogram("sim_phase_duration_seconds", nil, obs.L("phase", phase)).Snapshot()
		if h.Count != n {
			t.Errorf("sim_phase_duration_seconds{phase=%q} has %d observations after %d Steps", phase, h.Count, n)
		}
	}
}
