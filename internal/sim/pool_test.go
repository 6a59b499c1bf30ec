package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// poolProfile is a POOL-heavy city so shared-ride matches are frequent.
func poolProfile() *CityProfile {
	p := Manhattan()
	p.FleetShare = map[core.VehicleType]float64{core.UberPOOL: 1}
	p.DemandShare = map[core.VehicleType]float64{core.UberPOOL: 1}
	p.PeakDrivers = 120
	p.PeakRequestsPerHour = 600
	return p
}

// poolRequest plans one POOL request at pickup outside any surge area, the
// way the dispatch precompute would.
func poolRequest(w *World, pickup geo.Point) *subPlan {
	sub := &subPlan{pickup: pickup, poolDest: w.samplePlaceRand(w.rng), area: -1, vt: uint8(core.UberPOOL)}
	w.buildSubPlan(sub, nil)
	return sub
}

func TestPoolJoinsHappen(t *testing.T) {
	w := NewWorld(Config{Profile: poolProfile(), Seed: 3})
	w.Run(6 * 3600)
	if w.TotalPickups == 0 {
		t.Fatal("no pickups")
	}
	if w.TotalPoolJoins == 0 {
		t.Fatal("no POOL joins despite a POOL-only city")
	}
	// Joins are a subset of pickups.
	if w.TotalPoolJoins >= w.TotalPickups {
		t.Errorf("joins (%d) should be a fraction of pickups (%d)", w.TotalPoolJoins, w.TotalPickups)
	}
	// Every rider is eventually dropped: dropoffs track pickups.
	if w.TotalDropoffs == 0 {
		t.Fatal("no dropoffs")
	}
}

func TestPoolAccountingBalances(t *testing.T) {
	w := NewWorld(Config{Profile: poolProfile(), Seed: 9})
	w.Run(4 * 3600)
	// Drain all in-flight trips by stopping demand (run in a world copy
	// is impossible; instead let remaining trips finish: pool trips are
	// bounded, so a generous grace period suffices with demand still
	// arriving — dropoffs must stay within riders picked up).
	if w.TotalDropoffs > w.TotalPickups {
		t.Errorf("dropoffs (%d) exceed pickups (%d)", w.TotalDropoffs, w.TotalPickups)
	}
	// Riders in cars are bounded by 2 per POOL driver.
	w.EachDriver(func(d *Driver) {
		if d.PoolRiders < 0 || d.PoolRiders > 2 {
			t.Errorf("driver %d has %d riders", d.ID, d.PoolRiders)
		}
		if d.State != StateOnTrip && d.State != StateEnRoute && d.PoolRiders != 0 {
			t.Errorf("idle driver %d carries %d riders", d.ID, d.PoolRiders)
		}
	})
}

func TestPoolJoinDivertsRoute(t *testing.T) {
	w := NewWorld(Config{Profile: poolProfile(), Seed: 5})
	w.Run(600)
	// Find the lowest-slot joinable POOL trip; the matcher picks the
	// lowest slot within the radius, so a pickup right next to this
	// driver must join exactly this trip.
	f := &w.fleet
	target := int32(-1)
	for s := int32(0); int(s) < f.high; s++ {
		if w.joinableSlot(s) {
			target = s
			break
		}
	}
	if target < 0 {
		t.Skip("no single-rider POOL trip at probe time")
	}
	oldDest := f.dest[target]
	pickup := f.pos[target].Add(geo.Point{X: 50, Y: 50})
	if !w.commitPoolJoin(poolRequest(w, pickup)) {
		t.Fatal("join refused despite an eligible trip nearby")
	}
	if f.poolRiders[target] != 2 {
		t.Errorf("riders = %d, want 2", f.poolRiders[target])
	}
	if f.dest[target] != pickup || f.destDrop[target] {
		t.Error("driver should divert to the new pickup first")
	}
	if st := f.stops[target]; len(st) != 2 || !st[0].Drop || st[0].Pos != oldDest {
		t.Errorf("stop queue wrong: %+v", st)
	}
}

func TestPoolJoinRespectsRadius(t *testing.T) {
	w := NewWorld(Config{Profile: poolProfile(), Seed: 7})
	w.Run(600)
	far := geo.Point{X: 99999, Y: 99999}
	if w.commitPoolJoin(poolRequest(w, far)) {
		t.Error("joined a pool from outside the match radius")
	}
}
