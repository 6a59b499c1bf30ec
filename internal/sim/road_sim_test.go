package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/road"
)

// TestStepWorkerInvarianceRoad is the road-mode golden test: with
// street-network movement, congestion feedback, and road-ETA dispatch
// all active, the full world state (including every planned route and
// the congestion factor table) hashes identically for workers ∈ {1, 2, 8}.
func TestStepWorkerInvarianceRoad(t *testing.T) {
	profile := Manhattan()
	profile.RoadNetwork = true
	base := Config{Profile: profile, Seed: 42}
	const ticks = 400
	want := uint64(0)
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		h := hashAfter(cfg, ticks)
		if want == 0 {
			want = h
			continue
		}
		if h != want {
			t.Fatalf("workers=%d: road state hash %x, want %x (workers=1)", workers, h, want)
		}
	}
}

// TestRoadWorldRuns drives a road world through a busy stretch and checks
// the network is actually in use: trips complete, congestion rises above
// free flow somewhere, and every driver stays inside the region.
func TestRoadWorldRuns(t *testing.T) {
	profile := Manhattan()
	profile.RoadNetwork = true
	w := NewWorld(Config{Profile: profile, Seed: 7, StartTime: 17 * 3600, Workers: 4})
	sawCongestion := false
	for i := 0; i < 720; i++ { // one busy evening hour
		w.Step()
		if !sawCongestion {
			for _, f := range w.Road().Cong.Factors() {
				if f > 1.01 {
					sawCongestion = true
					break
				}
			}
		}
	}
	if w.TotalPickups == 0 || w.TotalDropoffs == 0 {
		t.Fatalf("road world moved no passengers: pickups=%d dropoffs=%d",
			w.TotalPickups, w.TotalDropoffs)
	}
	if !sawCongestion {
		t.Fatal("an hour of evening-rush trips never pushed any edge above free flow")
	}
	r := profile.Region
	w.EachDriver(func(d *Driver) {
		if !r.Contains(d.Pos) {
			t.Fatalf("driver %d escaped the region at %v", d.ID, d.Pos)
		}
	})
	if w.Road() == nil {
		t.Fatal("Road() nil on a RoadNetwork profile")
	}
}

// TestRoadSnapshotEWTMatchesWorld pins the frozen-factor snapshot EWT to
// the live World.EWT at the same tick boundary.
func TestRoadSnapshotEWTMatchesWorld(t *testing.T) {
	profile := Manhattan()
	profile.RoadNetwork = true
	w := NewWorld(Config{Profile: profile, Seed: 3, StartTime: 8 * 3600})
	for i := 0; i < 240; i++ {
		w.Step()
	}
	s := w.Snapshot()
	probes := []geo.Point{{}, {X: -800, Y: 600}, {X: 1200, Y: -900}, {X: 400, Y: 300}}
	for _, p := range probes {
		for _, vt := range []core.VehicleType{core.UberX, core.UberBLACK} {
			if got, want := s.EWT(vt, p), w.EWT(vt, p); got != want {
				t.Fatalf("EWT(%v, %v): snapshot %v, world %v", vt, p, got, want)
			}
		}
	}
}

// TestRoadSharedNetwork runs two worlds on one network the harness passed
// in: the worlds tally loads but never commit, the harness commits once per
// tick, and congestion produced by one fleet's trips slows the other's
// routes too (the coupling the two-service scenario rests on).
func TestRoadSharedNetwork(t *testing.T) {
	profile := Manhattan()
	net := road.ForProfile(profile.Name, profile.Region)
	uber := NewWorld(Config{Profile: profile, Seed: 1, StartTime: 17 * 3600, Road: net})
	taxi := NewWorld(Config{Profile: profile.TaxiCity(), Seed: 2, StartTime: 17 * 3600, Road: net})
	if uber.Road() != taxi.Road() {
		t.Fatal("worlds did not share the network")
	}
	for i := 0; i < 360; i++ {
		uber.Step()
		taxi.Step()
		net.Cong.Commit()
	}
	if uber.TotalDropoffs == 0 || taxi.TotalDropoffs == 0 {
		t.Fatalf("shared-network fleets idle: uber=%d taxi=%d dropoffs",
			uber.TotalDropoffs, taxi.TotalDropoffs)
	}
	loaded := false
	for _, f := range net.Cong.Factors() {
		if f > 1.0 {
			loaded = true
			break
		}
	}
	if !loaded {
		t.Fatal("two fleets of evening trips left the shared network at free flow")
	}
}

// TestRoadFareUsesRoute checks road-mode fares price the street route:
// with a detour-heavy network the charged distance exceeds the straight
// line, so fare volume per trip is strictly above the degenerate
// zero-distance floor and the settle path consulted the router.
func TestRoadFareUsesRoute(t *testing.T) {
	profile := Manhattan()
	profile.RoadNetwork = true
	w := NewWorld(Config{Profile: profile, Seed: 9, StartTime: 17 * 3600})
	for i := 0; i < 360; i++ {
		w.Step()
	}
	if w.TotalPickups == 0 {
		t.Fatal("no pickups to settle fares for")
	}
	if w.FareVolume <= 0 {
		t.Fatalf("fare volume %v after %d pickups", w.FareVolume, w.TotalPickups)
	}
	// Commission split must be preserved in road mode.
	if got, want := w.CommissionUSD/w.FareVolume, CommissionRate; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("commission share %v, want %v", got, want)
	}
}
