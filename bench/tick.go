package main

import (
	"runtime"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/road"
	"repro/internal/sim"
	"repro/internal/surge"
)

var tick100k = tickWorkload("tick_100k",
	"what experiments and uberd -fleet-scale pay per simulated second: a 100k-driver euclidean world, "+
		"where sim move/dispatch and the snapshot delta dominate and HTTP, gate, road and tsdb do nothing",
	238, false, 32, 20.5)

var tickRoad = tickWorkload("tick_road",
	"the same loop on streets: road A* and congestion are most of the tick here and absent from tick_100k, "+
		"so a routing change shows on this workload and must not move the other",
	72, true, 8, 70)

const (
	tickAccount    = "bench"
	speedupTicks   = 100  // ticks the parallel twin is timed over
	routeCalls     = 5000 // direct Router.Route calls
	snapAllocEvery = 8    // traced pass: every n-th Snapshot is bracketed by ReadMemStats
)

func tickWorkload(name, why string, scale float64, streets bool, pings int, opsPerSecond float64) *workload {
	return &workload{
		name: name, why: why, unit: "tick", opsPerSecond: opsPerSecond, setups: 5,
		setup: func(p params, tr *tracer) (rig, error) {
			profile := sim.Manhattan().Scale(scale)
			profile.RoadNetwork = streets
			g := &tickRig{p: p, tr: tr, city: newCity(profile), pings: pings, locs: newRNG(p.seed, 0x10c5)}
			g.w, g.e, g.svc = newBackend(profile, worldSeed, simWorkers, p.warm)
			if err := g.svc.Register(tickAccount); err != nil {
				return nil, err
			}
			shares := sim.NormalizedShares(profile.FleetShare)
			for _, vt := range core.AllVehicleTypes() {
				if shares[int(vt)] > 0 {
					g.offered = append(g.offered, vt)
				}
			}
			return g, nil
		},
	}
}

// tickRig is one world stepped by the load loop itself: after every tick
// it reads the fresh epoch with a few pings, so a cheaper snapshot build
// that makes reads dearer shows.
type tickRig struct {
	p       params
	tr      *tracer
	city    city
	w       *sim.World
	e       surge.Pricer
	svc     *api.Service
	offered []core.VehicleType
	pings   int
	locs    *rng
	ticks   int // stepped since warm-up
}

func (g *tickRig) digest() uint64 { return worldDigest(g.w) }
func (g *tickRig) close()         {}

// timed steps the world through api.Service, as uberd and the experiment
// harness do: op is one Service.Step, alt one in-process PingClient.
func (g *tickRig) timed(ops int, p *pass) {
	p.units = ops
	p.op, p.alt = make(latencies, 0, ops), make(latencies, 0, ops*g.pings)
	p.measure(func() {
		for i := 0; i < ops; i++ {
			t0 := time.Now()
			g.svc.Step()
			p.op = append(p.op, time.Since(t0))
			g.ticks++
			now := g.svc.Now()
			for j := 0; j < g.pings; j++ {
				loc := g.city.loc(g.locs)
				t0 := time.Now()
				resp, err := g.svc.PingClient(tickAccount, loc)
				p.alt = append(p.alt, time.Since(t0))
				switch {
				case err != nil:
					p.fail("ping at tick %d: %v", g.ticks, err)
				case resp.Time != now || len(resp.Types) != g.city.offered:
					p.fail("ping at tick %d: time %d (want %d), %d products (want %d)",
						g.ticks, resp.Time, now, len(resp.Types), g.city.offered)
				}
			}
		}
	})
	p.attempted = ops * (1 + g.pings)
	p.note("world_digest@tick%d = %.0f (drivers online %d, max congestion factor %.3f)",
		g.ticks, digestValue(g.digest()), g.w.OnlineDrivers(), maxFactor(g.w))
}

// digestValue keeps the 53 bits of a digest a JSON number carries exactly.
func digestValue(d uint64) float64 { return float64(d >> 11) }

// step advances world, engine and epoch by hand, the three parts of
// Service.Step, and returns the timestamps between them.
func (g *tickRig) step() (t [4]time.Time, snap *sim.Snapshot, view *surge.View) {
	t[0] = time.Now()
	g.w.Step()
	t[1] = time.Now()
	g.e.Step(g.w.Now())
	t[2] = time.Now()
	snap = g.w.Snapshot()
	t[3] = time.Now()
	return t, snap, g.e.View()
}

// snapshotPing is the sim layer's share of one pingClient: the snapshot
// lookups api.Service.PingClient makes, for every offered product.
func (g *tickRig) snapshotPing(snap *sim.Snapshot, view *surge.View, loc geo.LatLng) (cars int) {
	pt := snap.Proj.ToPlane(loc)
	area := snap.AreaOf(pt)
	for _, vt := range g.offered {
		cars += len(snap.NearestCars(vt, pt, core.MaxVisibleCars))
		if snap.EWT(vt, pt) < 0 || (vt.Surgeable() && view.ClientMultiplier(tickAccount, area, snap.Now) < 1) {
			return -1
		}
	}
	return cars
}

func (g *tickRig) traced(ops int, p *pass, tr *tracer, layers map[string]float64) {
	startTick := g.ticks
	twinTicks := min(speedupTicks, ops)
	reg := obs.NewRegistry()
	g.w.Instrument(reg) // a private registry, switched on only for this pass
	var step, surgeStep, snapshot latencies
	var snapAlloc uint64
	var twinDigest uint64
	snapSamples := 0
	p.units = ops
	p.measure(func() {
		var m0, m1 runtime.MemStats
		for i := 0; i < ops; i++ {
			sampled := i%snapAllocEvery == 0
			if sampled {
				runtime.ReadMemStats(&m0)
			}
			t, snap, view := g.step()
			if sampled {
				// Step and Pricer.Step allocate next to nothing at steady
				// state; the delta is the snapshot build's.
				runtime.ReadMemStats(&m1)
				snapAlloc += m1.TotalAlloc - m0.TotalAlloc
				snapSamples++
			}
			g.ticks++
			id := strconv.Itoa(g.ticks)
			root := tr.add("tick", id, -1, t[0], t[3])
			tr.add("sim.step", id, root, t[0], t[1])
			tr.add("surge.step", id, root, t[1], t[2])
			tr.add("sim.snapshot", id, root, t[2], t[3])
			step, surgeStep, snapshot = append(step, t[1].Sub(t[0])), append(surgeStep, t[2].Sub(t[1])), append(snapshot, t[3].Sub(t[2]))
			p.op = append(p.op, t[3].Sub(t[0]))
			for j := 0; j < g.pings; j++ {
				loc := g.city.loc(g.locs)
				t0 := time.Now()
				cars := g.snapshotPing(snap, view, loc)
				t1 := time.Now()
				tr.add("sim.ping", id, -1, t0, t1)
				p.alt = append(p.alt, t1.Sub(t0))
				if cars < 0 || cars > len(g.offered)*core.MaxVisibleCars {
					p.fail("snapshot ping at tick %d: %d cars", g.ticks, cars)
				}
			}
			if i == twinTicks-1 {
				twinDigest = g.digest()
			}
		}
	})
	p.attempted = ops * (1 + g.pings)

	mean := func(l latencies) float64 {
		var sum time.Duration
		for _, d := range l {
			sum += d
		}
		return ms(sum) / float64(max(len(l), 1))
	}
	stepP50, snapP50 := step.p50(), snapshot.p50()
	layers["sim.step_ms"] = ms(stepP50)
	layers["surge.step_ms"] = mean(surgeStep) // the engine recomputes once in 60 ticks: a median would read 0
	layers["sim.snapshot_ms"] = ms(snapP50)
	layers["sim.snapshot_alloc_kb"] = float64(snapAlloc) / 1024 / float64(max(snapSamples, 1))
	layers["sim.ping_us"] = us(p.alt.p50())
	for _, phase := range []string{"spawn", "move", "dispatch", "stats"} {
		h := reg.Histogram("sim_phase_duration_seconds", nil, obs.L("phase", phase)).Snapshot()
		layers["sim."+phase+"_ms"] = h.Sum * 1e3 / float64(max(ops, 1))
	}
	layers["road.max_factor"] = maxFactor(g.w)
	layers["check.world_digest"] = digestValue(g.digest())
	layers["trace.unexplained_ms"] = ms(p.op.p50()) - ms(stepP50) - ms(snapP50) - layers["surge.step_ms"]

	if net := g.w.Road(); net != nil {
		layers["road.route_us"] = g.routeCost(net, p)
	}

	// The parallel twin: an identical world stepped by all cores through the
	// same ticks. Worlds are bit-identical for every worker count, so its
	// digest must equal this world's, which the baseline pass stepped
	// through Service.Step and this pass by hand.
	twin, twinEngine, _ := newBackend(g.city.profile, worldSeed, g.p.procs, g.p.warm)
	for i := 0; i < startTick; i++ {
		twin.Step()
		twinEngine.Step(twin.Now())
		twin.Snapshot()
	}
	var parallel time.Duration
	for i := 0; i < twinTicks; i++ {
		t0 := time.Now()
		twin.Step()
		parallel += time.Since(t0)
		twinEngine.Step(twin.Now())
		twin.Snapshot()
	}
	if d := worldDigest(twin); d != twinDigest {
		p.fail("Workers:%d twin diverged at tick %d: digest %x, want %x", g.p.procs, startTick+twinTicks, d, twinDigest)
	}
	var serial time.Duration
	for _, d := range step[:twinTicks] {
		serial += d
	}
	layers["sim.worker_speedup"] = float64(serial) / float64(max(parallel, 1))
}

// routeCost times direct Router.Route calls between seeded points on the
// world's street graph under its end-of-run congestion.
func (g *tickRig) routeCost(net *road.Network, p *pass) float64 {
	r := newRNG(g.p.seed, 0x0ad)
	region := g.city.profile.Region
	node := func() int32 {
		return net.Graph.NearestNode(geo.Point{
			X: region.Min.X + r.float()*region.Width(),
			Y: region.Min.Y + r.float()*region.Height(),
		})
	}
	pairs := make([][2]int32, routeCalls)
	for i := range pairs {
		pairs[i] = [2]int32{node(), node()}
	}
	rt, factors := road.NewRouter(net.Graph), net.Cong.Factors()
	t0 := time.Now()
	for _, pr := range pairs {
		if _, _, ok := rt.Route(pr[0], pr[1], factors); !ok {
			p.fail("no route %d -> %d", pr[0], pr[1])
		}
	}
	return us(time.Since(t0)) / routeCalls
}
