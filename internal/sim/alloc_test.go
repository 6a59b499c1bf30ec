package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// The million-driver tick rests on an allocation-free movement phase (the
// per-tick cost proportional to fleet size) and on a snapshot build that
// allocates per product and per car, never per cell. These guards pin
// both; CI runs them with the normal test suite.

// TestMovePhaseZeroAlloc drives a serial world to steady state, then
// checks the whole movement phase — shard RNGs, state machines, path
// rings, grid commits — runs without a single heap allocation.
func TestMovePhaseZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("long warmup")
	}
	w := NewWorld(Config{Profile: Manhattan(), Seed: 21, Workers: 1})
	// Reach steady state under the full tick first (populations, shard
	// buffers, shard RNGs), then under the isolated move phase (drains the
	// sessions that expire at the frozen clock and saturates grid-cell
	// capacities under cruise drift).
	for i := 0; i < 1000; i++ {
		w.Step()
	}
	for i := 0; i < 600; i++ {
		w.moveDrivers()
	}
	if avg := testing.AllocsPerRun(200, func() { w.moveDrivers() }); avg != 0 {
		t.Fatalf("move phase allocates %.3f times per tick, want 0", avg)
	}
}

// rushWorldInRenewalCycle returns an instrumented 24× Manhattan at the
// evening rush, stepped and snapshotted until the path rings are saturated
// and the history chunks renew an eighth of the fleet per build. It never
// recycles, so every renewal makes a chunk.
func rushWorldInRenewalCycle(seed int64) (*World, *obs.Registry) {
	w := NewWorld(Config{Profile: Manhattan().Scale(24), Seed: seed, StartTime: 17 * 3600, Workers: 1})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	for i := 0; i < 2*(pathLen+1); i++ {
		w.Step()
		w.Snapshot()
	}
	return w, reg
}

// TestSnapshotAllocsPerBuild pins the shape of the build: one cell table and
// one slab per offered product, one chunk per history renewal, and a
// constant for the epoch itself (its struct, the frozen trip, now and then
// a longer builder slot table) — however many cells the fleet occupies.
func TestSnapshotAllocsPerBuild(t *testing.T) {
	w, reg := rushWorldInRenewalCycle(22)
	renewals := reg.Counter("sim_snapshot_history_renewals_total")
	cells := reg.Counter("sim_snapshot_cells_rebuilt_total")
	offered := 0
	for _, share := range w.Profile().FleetShare {
		if share > 0 {
			offered++
		}
	}
	var ms runtime.MemStats
	for i := 0; i < 12; i++ {
		w.Step()
		runtime.ReadMemStats(&ms)
		mallocs, r, c := ms.Mallocs, renewals.Value(), cells.Value()
		w.Snapshot()
		runtime.ReadMemStats(&ms)
		r, c = renewals.Value()-r, cells.Value()-c
		got, want := int64(ms.Mallocs-mallocs), int64(2*offered)+r+16
		if c < int64(20*offered) {
			t.Fatalf("build %d filled %d cells; the fleet is not spread out", i, c)
		}
		if got > want {
			t.Errorf("build %d allocated %d objects for %d products, %d renewals and %d cells, want <= %d",
				i, got, offered, r, c, want)
		}
	}
}

// TestSnapshotBytesPerCar pins what a build costs per car: every idle car
// cruises every tick, so every build encodes the whole idle fleet, and each
// car may allocate only its 32-byte slab entry plus its share of a history
// chunk (224 B every histPoints-pathLen+1 builds) and of the cell tables — not a fresh
// path. Re-seed offsets are staggered by slot, so no
// build pays for the whole fleet's chunk renewals at once.
func TestSnapshotBytesPerCar(t *testing.T) {
	w, reg := rushWorldInRenewalCycle(23)
	cars := reg.Counter("sim_snapshot_cars_reencoded_total")
	var ms runtime.MemStats
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < 12; i++ {
		w.Step()
		runtime.ReadMemStats(&ms)
		bytes, n := ms.TotalAlloc, cars.Value()
		w.Snapshot()
		runtime.ReadMemStats(&ms)
		n = cars.Value() - n
		if n < int64(w.fleet.n/2) {
			t.Fatalf("build %d encoded %d cars of %d online; most of this fleet should be idle", i, n, w.fleet.n)
		}
		per := float64(ms.TotalAlloc-bytes) / float64(n)
		if per > 70 {
			t.Errorf("build %d allocated %.1f B per encoded car, want <= 70", i, per)
		}
		lo, hi = min(lo, per), max(hi, per)
	}
	if hi > 1.5*lo {
		t.Errorf("bytes per encoded car range %.1f..%.1f over 12 builds, want max/min <= 1.5", lo, hi)
	}
	t.Logf("%.1f..%.1f B per encoded car", lo, hi)
}
