package attack

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestForceOfflineCompliance(t *testing.T) {
	w := sim.NewWorld(sim.Config{Profile: sim.SanFrancisco(), Seed: 3})
	w.Run(8 * 3600)
	before := w.OnlineDrivers()
	idle, _, _ := w.CountByState(core.UberX)
	if idle == 0 {
		t.Skip("no idle UberX")
	}
	offlineBefore, spawnedBefore := w.TotalOffline, w.TotalSpawned
	n := w.ForceOffline(core.UberX, 0, 50, 1800)
	if n == 0 {
		t.Fatal("nobody complied")
	}
	if w.OnlineDrivers() != before-n {
		t.Errorf("online = %d, want %d", w.OnlineDrivers(), before-n)
	}
	// Suspension cycles keep their own ledger: a coordinated logoff is
	// neither a driver death nor (on return) a fresh spawn.
	if w.TotalSuspended != int64(n) {
		t.Errorf("TotalSuspended = %d, want %d", w.TotalSuspended, n)
	}
	if w.TotalOffline != offlineBefore {
		t.Errorf("ForceOffline moved TotalOffline %d -> %d", offlineBefore, w.TotalOffline)
	}
	if w.TotalSpawned != spawnedBefore {
		t.Errorf("ForceOffline moved TotalSpawned %d -> %d", spawnedBefore, w.TotalSpawned)
	}
	// They return after the duration (plus a tick).
	w.Run(w.Now() + 1800 + 10)
	if got := w.OnlineDrivers(); got < before-n/2 {
		t.Errorf("drivers did not come back: %d (was %d)", got, before)
	}
	if w.TotalResumed != int64(n) {
		t.Errorf("TotalResumed = %d, want %d", w.TotalResumed, n)
	}
}

func TestForceOfflineNoIdleDrivers(t *testing.T) {
	w := sim.NewWorld(sim.Config{Profile: sim.Manhattan(), Seed: 5})
	// Ask for a product with (almost) no fleet.
	n := w.ForceOffline(core.UberRUSH, 0, 1000, 60)
	if n > 5 {
		t.Errorf("complied = %d, should be the tiny RUSH fleet at most", n)
	}
}

func TestCollusionInducesSurge(t *testing.T) {
	if testing.Short() {
		t.Skip("two backends")
	}
	// Attack an SF area during evening rush with the whole idle fleet:
	// the market is tight, so the missing supply must move the price.
	// (The seed is pinned to a run where enough of the fleet idles in
	// the target area; the lift threshold is trajectory-sensitive.)
	res := Run(Config{
		Scenario:   api.Scenario{City: "sf", Seed: 12},
		Area:       1,
		Drivers:    200,
		At:         17*3600 + 1800,
		Duration:   3600,
		ObserveFor: 3600,
	})
	if res.Complied == 0 {
		t.Fatal("no drivers complied")
	}
	if !res.Induced() {
		t.Errorf("collusion failed to raise surge: baseline %v vs attacked %v",
			res.Baseline, res.Attacked)
	}
	if res.PeakLift() < 0.3 {
		t.Errorf("peak lift = %.2f, want ≥ 0.3 with %d drivers dark", res.PeakLift(), res.Complied)
	}
}

func TestCollusionFizzlesOffPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("two backends")
	}
	// The same ring at 1pm in Manhattan: the slack in supply absorbs it.
	res := Run(Config{
		Scenario:   api.Scenario{City: "manhattan", Seed: 11},
		Area:       1,
		Drivers:    60,
		At:         13 * 3600,
		Duration:   1800,
		ObserveFor: 3600,
	})
	if res.PeakLift() > 0.5 {
		t.Errorf("off-peak attack lifted surge by %.1f; expected the slack to absorb it", res.PeakLift())
	}
}

func TestCollusionBaselineIsClean(t *testing.T) {
	// With zero drivers, the two trajectories are identical (same seed).
	res := Run(Config{
		Scenario:   api.Scenario{City: "manhattan", Seed: 13},
		Area:       0,
		Drivers:    0,
		At:         10 * 3600,
		Duration:   600,
		ObserveFor: 1800,
	})
	if res.Complied != 0 {
		t.Fatalf("complied = %d", res.Complied)
	}
	for i := range res.Baseline {
		if res.Baseline[i] != res.Attacked[i] {
			t.Fatalf("trajectories diverge without an attack at %d: %v vs %v",
				i, res.Baseline[i], res.Attacked[i])
		}
	}
	if res.Induced() {
		t.Error("no-op attack reported as induced")
	}
}
