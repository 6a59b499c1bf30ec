package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// The million-driver tick rests on two allocation-free paths: the
// movement phase (the per-tick cost proportional to fleet size) and the
// no-churn snapshot path (the query side's steady state). These guards
// pin both at exactly zero allocations per run; CI runs them with the
// normal test suite.

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

// TestSnapshotNoChurnZeroAlloc pins the delta-snapshot fast path: with no
// marked changes since the last build, Snapshot returns the cached
// snapshot without allocating.
func TestSnapshotNoChurnZeroAlloc(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 22, Workers: 1})
	w.Run(600)
	w.Snapshot()
	if avg := testing.AllocsPerRun(200, func() { _ = w.Snapshot() }); avg != 0 {
		t.Fatalf("no-churn snapshot allocates %.3f times per call, want 0", avg)
	}
}

// TestSnapshotBytesPerCar pins what a churning build costs: every idle car
// cruises every tick, so every build re-encodes the whole idle fleet, and
// each re-encode may allocate only the car's 32-byte cell entry plus its
// share of a history chunk (176 B every pathLen+1 builds) and of the cell
// tables — not a fresh path. Re-seed offsets are staggered by slot, so no
// build pays for the whole fleet's chunk renewals at once.
func TestSnapshotBytesPerCar(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan().Scale(24), Seed: 23, StartTime: 17 * 3600, Workers: 1})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	cars := reg.Counter("sim_snapshot_cars_reencoded_total")
	for i := 0; i < 2*(pathLen+1); i++ { // saturate the rings and reach the renewal cycle
		w.Step()
		w.Snapshot()
	}
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
			t.Fatalf("build %d re-encoded %d cars of %d online; the world is not churning", i, n, w.fleet.n)
		}
		per := float64(ms.TotalAlloc-bytes) / float64(n)
		if per > 72 {
			t.Errorf("build %d allocated %.1f B per re-encoded car, want <= 72", i, per)
		}
		lo, hi = min(lo, per), max(hi, per)
	}
	if hi > 1.5*lo {
		t.Errorf("bytes per re-encoded car range %.1f..%.1f over 12 builds, want max/min <= 1.5", lo, hi)
	}
	t.Logf("%.1f..%.1f B per re-encoded car", lo, hi)
}
