package sim

import "testing"

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
