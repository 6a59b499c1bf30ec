package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// fnvHash accumulates an FNV-1a 64 digest over primitive values; the
// world-state hash below feeds every observable field through it so two
// worlds hash equal only when they are field-for-field identical.
type fnvHash struct{ h uint64 }

func newFnvHash() *fnvHash { return &fnvHash{h: 1469598103934665603} }

func (f *fnvHash) byte(b byte) {
	f.h ^= uint64(b)
	f.h *= 1099511628211
}

func (f *fnvHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fnvHash) i64(v int64)    { f.u64(uint64(v)) }
func (f *fnvHash) int(v int)      { f.u64(uint64(int64(v))) }
func (f *fnvHash) f64(v float64)  { f.u64(math.Float64bits(v)) }
func (f *fnvHash) pt(p geo.Point) { f.f64(p.X); f.f64(p.Y) }
func (f *fnvHash) bool(b bool) {
	if b {
		f.byte(1)
	} else {
		f.byte(0)
	}
}
func (f *fnvHash) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.byte(0)
}

// worldHash digests the full observable world state: every driver field
// (in slice order), the suspension and shock queues, all lifetime
// counters, the price and fare ledgers, and the window stats. Two runs
// that diverge anywhere — a single RNG draw, one swapped commit — hash
// differently.
func worldHash(w *World) uint64 {
	f := newFnvHash()
	f.i64(w.now)
	f.i64(w.tick)
	f.i64(w.nextID)
	f.int(w.fleet.n)
	f.int(w.fleet.high)
	f.int(len(w.fleet.free))
	var d Driver
	for s := int32(0); int(s) < w.fleet.high; s++ {
		if !w.fleet.live[s] {
			continue
		}
		w.fleet.view(s, &d)
		f.i64(d.ID)
		f.str(d.Session)
		f.int(int(d.Type))
		f.pt(d.Pos)
		f.int(int(d.State))
		f.pt(d.Pickup)
		f.pt(d.Dest)
		f.bool(d.destDrop)
		f.int(len(d.stops))
		for _, s := range d.stops {
			f.pt(s.Pos)
			f.bool(s.Drop)
		}
		f.int(d.PoolRiders)
		f.i64(d.OfflineAt)
		f.f64(d.PriceFactor)
		f.i64(d.idleSince)
		f.f64(d.EarnedUSD)
		f.pt(d.cruiseTarget)
		f.i64(d.cruiseUntil)
		f.int(d.pathN)
		f.int(d.pathPos)
		for _, p := range d.path {
			f.pt(p)
		}
		// Road-route state (zero/-1 on euclidean worlds, hashed anyway).
		f.int(int(w.fleet.routeHop[s]))
		f.int(int(w.fleet.routeEdge[s]))
		f.pt(w.fleet.routeGoal[s])
		f.int(len(w.fleet.route[s]))
		for _, v := range w.fleet.route[s] {
			f.int(int(v))
		}
	}
	if net := w.Road(); net != nil {
		for _, v := range net.Cong.Factors() {
			f.f64(v)
		}
	}
	f.int(len(w.suspended))
	for _, s := range w.suspended {
		f.int(int(s.vt))
		f.pt(s.pos)
		f.i64(s.returnAt)
	}
	f.int(len(w.shocks))
	for _, s := range w.shocks {
		f.int(s.area)
		f.f64(s.factor)
		f.i64(s.until)
	}
	f.i64(w.TotalSpawned)
	f.i64(w.TotalOffline)
	f.i64(w.TotalSuspended)
	f.i64(w.TotalResumed)
	f.i64(w.TotalPickups)
	f.i64(w.TotalDropoffs)
	f.i64(w.TotalPricedOut)
	f.i64(w.TotalUnmet)
	f.i64(w.TotalPoolJoins)
	f.f64(w.priceSum)
	f.f64(w.priceSumSq)
	f.i64(w.priceN)
	f.f64(w.FareVolume)
	f.f64(w.CommissionUSD)
	for _, v := range w.AreaFares {
		f.f64(v)
	}
	for _, st := range w.areaStats {
		f.int(st.Ticks)
		f.f64(st.IdleCarTicks)
		f.f64(st.BusyCarTicks)
		f.int(st.Pickups)
		f.int(st.LatentDemand)
		f.int(st.PricedOut)
		f.int(st.Unfulfilled)
		f.f64(st.EWTSum)
		f.int(st.EWTN)
	}
	for vt := range w.grids {
		f.int(w.grids[vt].Len())
	}
	return f.h
}

// hashAfter runs a fresh world for ticks steps with the given worker
// count and returns its state hash.
func hashAfter(cfg Config, ticks int) uint64 {
	w := NewWorld(cfg)
	w.SetSurgeProvider(func(a int) float64 { return 1 + 0.1*float64(a) })
	for i := 0; i < ticks; i++ {
		w.Step()
	}
	return worldHash(w)
}

// TestStepWorkerInvariance is the tentpole's golden test: after 1000
// ticks at a fixed seed, the full world state hashes identically for
// workers ∈ {1, 2, 8}, and identically across repeat runs.
func TestStepWorkerInvariance(t *testing.T) {
	base := Config{Profile: Manhattan(), Seed: 42}
	const ticks = 1000
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
			t.Fatalf("workers=%d: state hash %x, want %x (workers=1)", workers, h, want)
		}
	}
	cfg := base
	cfg.Workers = 2
	if h := hashAfter(cfg, ticks); h != want {
		t.Fatalf("repeat run with workers=2: state hash %x, want %x", h, want)
	}
}

// TestStepWorkerInvarianceMultiShard is the same golden on a world whose
// move phase really fans out: Manhattan at four times the fleet holds
// several 256-slot move shards from the first tick (the calibrated
// profiles above fit in one, which runShards runs inline), on straight
// lines and on the street network.
func TestStepWorkerInvarianceMultiShard(t *testing.T) {
	for _, road := range []bool{false, true} {
		t.Run(fmt.Sprintf("road=%v", road), func(t *testing.T) {
			p := Manhattan().Scale(4)
			p.RoadNetwork = road
			cfg := Config{Profile: p, Seed: 42, Workers: 1}
			if n := numShards(NewWorld(cfg).fleet.high); n < 2 {
				t.Fatalf("world has %d move shards, need at least 2", n)
			}
			want := hashAfter(cfg, 1000)
			for _, workers := range []int{2, 8} {
				cfg.Workers = workers
				if h := hashAfter(cfg, 1000); h != want {
					t.Fatalf("workers=%d: state hash %x, want %x (workers=1)", workers, h, want)
				}
			}
		})
	}
}

// TestStepWorkerInvarianceDriverSet covers the pricing-sensitive paths
// (lose-shift in cruise, suspension/resume) under the parallel tick.
func TestStepWorkerInvarianceDriverSet(t *testing.T) {
	run := func(workers int) uint64 {
		w := NewWorld(Config{Profile: SanFrancisco(), Seed: 7, Workers: workers})
		w.SetMarket(MarketDriverSet)
		for i := 0; i < 300; i++ {
			w.Step()
		}
		w.ForceOffline(core.UberX, 0, 15, 300)
		for i := 0; i < 300; i++ {
			w.Step()
		}
		return worldHash(w)
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		if h := run(workers); h != want {
			t.Fatalf("workers=%d: state hash %x, want %x (workers=1)", workers, h, want)
		}
	}
}

// TestParallelStepInvariants runs the multi-worker tick under the full
// bookkeeping invariant check (grids vs drivers vs index); with -race
// this is also the data-race probe for the compute/commit split.
func TestParallelStepInvariants(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 11, Workers: 8})
	for hour := 0; hour < 3; hour++ {
		w.Run(int64(hour+1) * 3600)
		checkInvariants(t, w)
		if s := w.Snapshot(); s.Now != w.Now() {
			t.Fatalf("snapshot time %d, want %d", s.Now, w.Now())
		}
	}
}

// TestFirstTickMoveRace is the -race probe for per-shard state sized
// inside the move fan-out: on a fresh world every shard's RNG and commit
// buffer is created during the first Step, so that tick is the only one
// that can catch a worker growing a slice its siblings index. Several
// fresh worlds, because a racy append only trips the detector when two
// workers overlap.
func TestFirstTickMoveRace(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		run := func(workers int) uint64 {
			w := NewWorld(Config{Profile: benchProfile10k(), Seed: seed, Workers: workers})
			if n := numShards(w.fleet.high); n < 2 {
				t.Fatalf("world has %d move shards, need at least 2", n)
			}
			for i := 0; i < 3; i++ {
				w.Step()
			}
			return worldHash(w)
		}
		if par, ser := run(4), run(1); par != ser {
			t.Fatalf("seed %d: state hash %x with 4 workers, %x with 1", seed, par, ser)
		}
	}
}

// TestShardStreamIndependence pins the shard RNG keying: the same
// (seed, tick, shard) triple replays the same stream, and changing any
// component of the triple changes the draws.
func TestShardStreamIndependence(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 1})
	w.growMoveOps(5)
	a := w.shardRand(3).Uint64()
	if b := w.shardRand(3).Uint64(); b != a {
		t.Fatalf("same (seed,tick,shard) drew %x then %x", a, b)
	}
	if b := w.shardRand(4).Uint64(); b == a {
		t.Fatal("neighboring shards share a stream")
	}
	w.tick++
	if b := w.shardRand(3).Uint64(); b == a {
		t.Fatal("consecutive ticks share a stream")
	}
	w2 := NewWorld(Config{Profile: Manhattan(), Seed: 2})
	w2.growMoveOps(5)
	if b := w2.shardRand(3).Uint64(); b == a {
		t.Fatal("different seeds share a stream")
	}
}

// benchProfile10k is a Manhattan variant sized so the world holds about
// ten thousand online drivers at the midnight start.
func benchProfile10k() *CityProfile {
	p := Manhattan()
	p.PeakDrivers = 22200
	p.PeakRequestsPerHour = 2600
	return p
}

// BenchmarkWorldStep is the serial reference: one worker, ~10k drivers.
func BenchmarkWorldStep(b *testing.B) {
	w := NewWorld(Config{Profile: benchProfile10k(), Seed: 1, Workers: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}

// BenchmarkWorldStepParallel sweeps the tick worker count on the same
// ~10k-driver world. Scaling beyond 1× needs GOMAXPROCS > 1; on a
// single-core host the sub-benchmarks only demonstrate that the
// fan-out overhead is small.
func BenchmarkWorldStepParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := NewWorld(Config{Profile: benchProfile10k(), Seed: 1, Workers: workers})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
}
