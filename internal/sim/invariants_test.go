package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// checkInvariants verifies the world's internal bookkeeping: the fleet's
// slot accounting balances, the per-product grids hold exactly the idle
// drivers with fresh positions, and the joinable-POOL index holds exactly
// the joinable trips.
func checkInvariants(t *testing.T, w *World) {
	t.Helper()
	f := &w.fleet
	idleByType := make(map[core.VehicleType]map[int32]geo.Point)
	seen := 0
	for s := int32(0); int(s) < f.high; s++ {
		if !f.live[s] {
			continue
		}
		seen++
		if DriverState(f.state[s]) == StateIdle {
			vt := core.VehicleType(f.typ[s])
			m := idleByType[vt]
			if m == nil {
				m = make(map[int32]geo.Point)
				idleByType[vt] = m
			}
			m[s] = f.pos[s]
		}
	}
	if seen != w.OnlineDrivers() {
		t.Fatalf("saw %d live slots, OnlineDrivers says %d", seen, w.OnlineDrivers())
	}
	if f.n+len(f.free) != f.high {
		t.Fatalf("slot accounting broken: n=%d free=%d high=%d", f.n, len(f.free), f.high)
	}
	for _, s := range f.free {
		if f.live[s] {
			t.Fatalf("free slot %d is marked live", s)
		}
	}
	for _, vt := range core.AllVehicleTypes() {
		grid := w.grids[int(vt)]
		want := idleByType[vt]
		if grid.Len() != len(want) {
			t.Fatalf("%v grid holds %d, want %d idle drivers", vt, grid.Len(), len(want))
		}
		grid.Each(func(slot int32, p geo.Point) {
			wp, ok := want[slot]
			if !ok {
				t.Fatalf("%v grid holds non-idle or unknown slot %d", vt, slot)
			}
			if wp != p {
				t.Fatalf("%v grid position for %d is stale: %v vs %v", vt, slot, p, wp)
			}
		})
	}
	joinable := 0
	for s := int32(0); int(s) < f.high; s++ {
		if w.joinableSlot(s) {
			joinable++
			if !w.poolGrid.Contains(s) {
				t.Fatalf("joinable POOL slot %d missing from pool index", s)
			}
			if p, _ := w.poolGrid.Position(s); p != f.pos[s] {
				t.Fatalf("pool index position for %d is stale: %v vs %v", s, p, f.pos[s])
			}
		}
	}
	if w.poolGrid.Len() != joinable {
		t.Fatalf("pool index holds %d, want %d joinable trips", w.poolGrid.Len(), joinable)
	}
}

func TestWorldInvariantsUnderChurn(t *testing.T) {
	for _, market := range []Market{MarketSurge, MarketDriverSet} {
		w := NewWorld(Config{Profile: SanFrancisco(), Seed: 99})
		w.SetMarket(market)
		w.SetSurgeProvider(func(int) float64 { return 1.3 })
		for hour := 0; hour < 6; hour++ {
			w.Run(int64(hour+1) * 3600)
			checkInvariants(t, w)
		}
	}
}

func TestWorldInvariantsWithCollusionAndShocks(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 5})
	w.Run(8 * 3600)
	checkInvariants(t, w)
	w.ForceOffline(core.UberX, 0, 30, 600)
	w.InjectDemandShock(1, 1.8, 1200)
	checkInvariants(t, w)
	w.Run(w.Now() + 1800)
	checkInvariants(t, w)
}

func TestPoolWorldInvariants(t *testing.T) {
	w := NewWorld(Config{Profile: poolProfile(), Seed: 13})
	w.Run(3 * 3600)
	checkInvariants(t, w)
}
