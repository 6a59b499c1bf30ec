package surge

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// newPricerWorld builds a world over profile p with a demand shock hot
// enough to guarantee surge activity, fronted by the named pricing engine.
func newPricerWorld(t *testing.T, p *sim.CityProfile, name string, seed int64, workers int, jitter bool) (*sim.World, Pricer) {
	t.Helper()
	w := sim.NewWorld(sim.Config{Profile: p, Seed: seed, Workers: workers})
	pr, err := NewPricer(w, name, Config{Params: p.Surge, Seed: seed, Jitter: jitter})
	if err != nil {
		t.Fatalf("NewPricer(%q): %v", name, err)
	}
	w.InjectDemandShock(0, 8, 4*3600)
	w.InjectDemandShock(2, 8, 4*3600)
	return w, pr
}

// TestPricerConformance runs every engine through the interface contract
// the backends rely on: names round-trip through the selector, ground
// truth never drops below the floor of 1, the published View agrees with
// the engine, and the API stream serves at most the interval's prev/cur
// pair — never a jittered third value.
func TestPricerConformance(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			w, pr := newPricerWorld(t, sim.Manhattan(), name, 11, 0, true)
			if pr.Name() != name {
				t.Fatalf("Name() = %q, want %q", pr.Name(), name)
			}
			areas := len(w.Areas())
			sawSurge := false
			for w.Now() < 2*3600 {
				w.Step()
				pr.Step(w.Now())
				now := w.Now()
				v := pr.View()
				for a := 0; a < areas; a++ {
					cur, prev := pr.CurrentMultiplier(a), pr.PrevMultiplier(a)
					if cur < 1 || prev < 1 {
						t.Fatalf("area %d: multiplier below floor: cur=%v prev=%v", a, cur, prev)
					}
					if cur > 1 {
						sawSurge = true
					}
					if vc := v.CurrentMultiplier(a); vc != cur {
						t.Fatalf("area %d: view cur %v != engine cur %v", a, vc, cur)
					}
					api := pr.APIMultiplier(a, now)
					if api != v.APIMultiplier(a, now) {
						t.Fatalf("area %d: engine API %v != view API %v", a, api, v.APIMultiplier(a, now))
					}
					if api != cur && api != prev {
						t.Fatalf("area %d: API stream served %v, not the interval's prev %v / cur %v",
							a, api, prev, cur)
					}
				}
			}
			if !sawSurge {
				t.Fatal("shocked world never surged; conformance checks exercised nothing")
			}
		})
	}
}

// TestAdditiveNeverJitters pins the Additive datastream's defining
// absence: the additive rollout postdates the April bug, so even a
// Config asking for jitter yields none — client stream and API stream
// agree for every client at every moment.
func TestAdditiveNeverJitters(t *testing.T) {
	w, pr := newPricerWorld(t, sim.Manhattan(), "additive", 5, 0, true)
	clients := []string{"c00", "c07", "c13", "c21", "c34"}
	for w.Now() < 3600 {
		w.Step()
		pr.Step(w.Now())
		now := w.Now()
		for _, id := range clients {
			if pr.InJitter(id, now) {
				t.Fatalf("client %s in a jitter window at t=%d under the additive engine", id, now)
			}
			for a := 0; a < len(w.Areas()); a++ {
				if cm, am := pr.ClientMultiplier(id, a, now), pr.APIMultiplier(a, now); cm != am {
					t.Fatalf("client %s area %d t=%d: client stream %v != API stream %v", id, a, now, cm, am)
				}
			}
		}
	}
}

// TestAdditivePipsOnGrid pins the engine's external signature: every
// effective multiplier encodes a USD pip on the $0.25 grid — the
// off-multiplier-grid residue the 2015 audit methodology can detect.
func TestAdditivePipsOnGrid(t *testing.T) {
	w, pr := newPricerWorld(t, sim.Manhattan(), "additive", 17, 0, false)
	add := pr.(*Engine)
	base := add.NominalBase()
	sawPip := false
	for w.Now() < 2*3600 {
		w.Step()
		pr.Step(w.Now())
		for a := 0; a < len(w.Areas()); a++ {
			pip := (pr.CurrentMultiplier(a) - 1) * base
			if pip != add.CurrentPip(a) {
				t.Fatalf("area %d: multiplier encodes pip %v, engine says %v", a, pip, add.CurrentPip(a))
			}
			cents := pip * 100
			if q := float64(int64(cents/25+0.5)) * 25; cents < 0 || absDiff(q, cents) > 1e-6 {
				t.Fatalf("area %d: pip $%.4f not on the $0.25 grid", a, pip)
			}
			if pip > 0 {
				sawPip = true
			}
		}
	}
	if !sawPip {
		t.Fatal("shocked world never produced a nonzero pip")
	}
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// engineStateHash digests the complete exported end state of a run —
// every driver column, every lifetime counter, the economics, and the
// engine's ground-truth multipliers — so any divergence between worker
// counts shows up, not just aggregate drift.
func engineStateHash(w *sim.World, pr Pricer) uint64 {
	h := fnv.New64a()
	w.EachDriver(func(d *sim.Driver) {
		fmt.Fprintf(h, "%d|%s|%d|%v|%v|%d|%v|%v|%d|%d|%v|%v\n",
			d.ID, d.Session, d.Type, d.Pos, d.State, d.PoolRiders,
			d.Pickup, d.Dest, d.OfflineAt, int64(d.PriceFactor*1e9), d.EarnedUSD, d.PathPoints())
	})
	fmt.Fprintf(h, "counters|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		w.TotalSpawned, w.TotalOffline, w.TotalSuspended, w.TotalResumed, w.TotalWithheld,
		w.TotalPickups, w.TotalDropoffs, w.TotalPricedOut, w.TotalUnmet, w.TotalPoolJoins)
	fmt.Fprintf(h, "economics|%v|%v\n", w.FareVolume, w.CommissionUSD)
	for a := 0; a < len(w.Areas()); a++ {
		fmt.Fprintf(h, "mult|%d|%v|%v\n", a, pr.CurrentMultiplier(a), pr.PrevMultiplier(a))
	}
	return h.Sum64()
}

// TestStepWorkerInvarianceEngines is the per-engine golden-hash gate: a
// world fronted by each pricing engine — including withholding's
// incentive-response hook in the serial spawn phase — must reach a
// bit-identical exported state at workers 1, 2, and 8. The world is
// Manhattan at four times the fleet: the calibrated one fits in a single
// 256-slot move shard, which the sim runs inline at any worker count.
func TestStepWorkerInvarianceEngines(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			var want uint64
			var withheld int64
			for i, workers := range []int{1, 2, 8} {
				w, pr := newPricerWorld(t, sim.Manhattan().Scale(4), name, 42, workers, true)
				if n := w.OnlineDrivers(); n <= 256 {
					t.Fatalf("world starts with %d online drivers: one move shard, nothing fans out", n)
				}
				for w.Now() < 3600 {
					w.Step()
					pr.Step(w.Now())
				}
				h := engineStateHash(w, pr)
				if i == 0 {
					want, withheld = h, w.TotalWithheld
					continue
				}
				if h != want {
					t.Fatalf("workers=%d: state hash %x, want %x (workers=1)", workers, h, want)
				}
			}
			if name == "withholding" && withheld == 0 {
				t.Fatal("withholding engine never withheld a driver; invariance exercised nothing")
			}
		})
	}
}
