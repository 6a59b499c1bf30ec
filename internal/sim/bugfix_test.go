package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// TestResumeRestoresPricingState is the regression test for the
// suspended-driver resume bug: returning drivers used to be rebuilt
// without PriceFactor or idleSince, so in MarketDriverSet they quoted
// factor 0 and the 20-minute lose-shift rule fired on their first cruise
// tick.
func TestResumeRestoresPricingState(t *testing.T) {
	p := Manhattan()
	p.PeakRequestsPerHour = 0 // no bookings: win-stay can't move factors
	w := NewWorld(Config{Profile: p, Seed: 3})
	w.SetMarket(MarketDriverSet)
	w.Run(3600)

	n := w.ForceOffline(core.UberX, 0, 10, 60)
	if n == 0 {
		t.Fatal("no idle UberX drivers to suspend")
	}
	firstResumedID := w.nextID

	// Jump to the return time and resume directly, observing the drivers
	// exactly as dispatch would see them before any cruise tick runs.
	w.now += 60
	w.resumeSuspended()
	if len(w.suspended) != 0 {
		t.Fatalf("%d drivers still suspended after return time", len(w.suspended))
	}
	if w.TotalResumed != int64(n) {
		t.Fatalf("TotalResumed = %d, want %d", w.TotalResumed, n)
	}

	factors := make(map[int64]float64)
	w.EachDriver(func(d *Driver) {
		if d.ID < firstResumedID {
			return
		}
		if d.PriceFactor < 0.7 || d.PriceFactor > 2.5 {
			t.Errorf("resumed driver %d quotes factor %.2f, want within [0.7, 2.5]", d.ID, d.PriceFactor)
		}
		if d.idleSince != w.now {
			t.Errorf("resumed driver %d has idleSince %d, want %d (resume time)", d.ID, d.idleSince, w.now)
		}
		factors[d.ID] = d.PriceFactor
	})
	if len(factors) != n {
		t.Fatalf("found %d resumed drivers, want %d", len(factors), n)
	}

	// One full tick later no lose-shift may fire: with zero demand the
	// resumed drivers' factors must be exactly unchanged.
	w.Step()
	w.EachDriver(func(d *Driver) {
		want, ok := factors[d.ID]
		if !ok {
			return
		}
		if d.PriceFactor != want {
			t.Errorf("driver %d factor moved %.2f -> %.2f one tick after resume (spurious lose-shift)",
				d.ID, want, d.PriceFactor)
		}
	})
}

// TestZeroAreaWorldSustainsPopulation is the regression test for the
// spawnArrivals zero-area bug: with no surge areas the average surge
// divided by zero, the NaN arrival rate poisoned the Poisson draw, and
// the spawn process went haywire. The population of an area-less world
// must track its diurnal target like any other world.
func TestZeroAreaWorldSustainsPopulation(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 7})
	// Strip the surge areas, as a taxi-validation or custom profile rig
	// would: no areas, no per-area stats, only the region remains.
	w.areas = nil
	w.areaStats = nil
	w.AreaFares = nil
	w.areaIndex = geo.NewAreaIndex(nil, gridCellMeters)

	target := w.OnlineDrivers()
	if target == 0 {
		t.Fatal("world started empty")
	}
	for i := 0; i < 100; i++ {
		w.Step()
		if pop := w.OnlineDrivers(); pop > 4*target {
			t.Fatalf("population exploded to %d (target %d) after %d ticks", pop, target, i+1)
		}
	}
	pop := w.OnlineDrivers()
	if pop < target/2 || pop > 2*target {
		t.Fatalf("population %d after 100 ticks, want near target %d", pop, target)
	}
	if w.TotalSpawned == 0 {
		t.Fatal("no drivers spawned in 100 ticks: arrival rate collapsed")
	}
}

// TestSuspensionChurnCountersSplit is the regression test for the
// churn double-count: a ForceOffline → resume cycle used to register as
// one driver death (TotalOffline) plus one fresh spawn (TotalSpawned),
// skewing lifespan- and churn-derived figures. Suspension cycles now
// keep their own ledger.
func TestSuspensionChurnCountersSplit(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 5})
	w.Run(3600)

	spawned, offline := w.TotalSpawned, w.TotalOffline
	n := w.ForceOffline(core.UberX, 0, 20, 120)
	if n == 0 {
		t.Fatal("no idle UberX drivers to suspend")
	}
	if w.TotalSuspended != int64(n) {
		t.Fatalf("TotalSuspended = %d, want %d", w.TotalSuspended, n)
	}
	if w.TotalOffline != offline {
		t.Fatalf("ForceOffline moved TotalOffline %d -> %d: suspensions must not count as deaths",
			offline, w.TotalOffline)
	}
	if w.TotalSpawned != spawned {
		t.Fatalf("ForceOffline moved TotalSpawned %d -> %d", spawned, w.TotalSpawned)
	}

	w.Run(w.Now() + 600) // well past the 120 s return
	if w.TotalResumed != int64(n) {
		t.Fatalf("TotalResumed = %d, want %d", w.TotalResumed, n)
	}
	if len(w.suspended) != 0 {
		t.Fatalf("%d drivers still suspended", len(w.suspended))
	}
}
