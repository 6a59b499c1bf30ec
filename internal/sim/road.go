package sim

// Road-network movement: the opt-in model (CityProfile.RoadNetwork or an
// explicit Config.Road) that replaces straight-line-with-detour-factor
// motion with driving along a street graph. Idle drivers cruise block to
// block, dispatched drivers follow congested shortest routes, fares and
// EWTs price the actual route, and each tick's trip density feeds back
// into per-edge congestion.
//
// Phase discipline (see parallel.go): route queries are pure reads of the
// immutable graph plus the congestion factor table, which only changes in
// Commit — a serial-phase call. Each movement shard owns a preallocated
// router, so the parallel phase performs no locking and no allocation,
// and results stay bit-identical for every worker count. The congestion
// tally walks slots in slot order inside the serial stats phase.

import (
	"math/rand"

	"repro/internal/geo"
	"repro/internal/road"
)

// maxCruiseLeg caps how far an idle driver plans one cruise leg in road
// mode. The hotspot drift of the euclidean cruise is preserved (the
// target direction still comes from samplePlaceRand); the clamp just
// keeps the per-retarget route query short.
const maxCruiseLeg = 600.0

// roadRefineK is how many still-idle straight-line-nearest candidates the
// dispatch commit re-ranks by road ETA. The SlotGrid top-k is the
// pre-filter; the road refinement picks among them.
const roadRefineK = 4

// Road returns the world's street network, or nil when the world moves
// drivers on the euclidean plane.
func (w *World) Road() *road.Network { return w.road }

// planRoute computes a fresh route for slot s from its position to
// target, reusing the slot's route buffer. factors selects congested
// (live table) or free-flow (nil) edge costs. On failure (disconnected
// endpoints cannot happen on generated graphs, but custom networks may)
// the route is left empty and followRoute falls back to a straight leg.
func (w *World) planRoute(s int32, target geo.Point, rt *road.Router, factors []float64) {
	f := &w.fleet
	g := w.road.Graph
	from := g.NearestNode(f.pos[s])
	to := g.NearestNode(target)
	path, _, _, ok := rt.RoutePath(from, to, factors, f.route[s][:0])
	if !ok {
		path = path[:0]
	}
	f.route[s] = path
	f.routeHop[s] = 0
	f.routeEdge[s] = -1
	f.routeGoal[s] = target
}

// followRoute advances slot s along its planned route toward target by
// dt seconds, replanning when the goal changed or no route exists.
// fixedSpeed > 0 forces that speed on every leg (idle cruising);
// otherwise legs on graph edges run at the edge's congested speed and
// the off-road approach/egress legs at road.OffRoadSpeed. Reports
// whether the target was reached this tick.
func (w *World) followRoute(s int32, target geo.Point, dt, fixedSpeed float64, rt *road.Router, factors []float64) bool {
	f := &w.fleet
	g := w.road.Graph
	if f.routeHop[s] < 0 || f.routeGoal[s] != target {
		w.planRoute(s, target, rt, factors)
	}
	budget := dt
	for budget > 0 {
		route := f.route[s]
		hop := int(f.routeHop[s])
		var next geo.Point
		sp := fixedSpeed
		if hop < len(route) {
			next = g.NodePos(route[hop])
			if sp <= 0 {
				if e := f.routeEdge[s]; e >= 0 {
					fac := 1.0
					if factors != nil {
						fac = factors[e]
					}
					sp = g.EdgeSpeed(e) / fac
				} else {
					sp = road.OffRoadSpeed // curb approach to the first node
				}
			}
		} else {
			next = target
			if sp <= 0 {
				sp = road.OffRoadSpeed
			}
		}
		d := geo.Dist(f.pos[s], next)
		if step := sp * budget; step < d {
			f.pos[s] = f.pos[s].Add(next.Sub(f.pos[s]).Scale(step / d))
			return false
		}
		f.pos[s] = next
		budget -= d / sp
		if hop < len(route) {
			f.routeHop[s] = int32(hop + 1)
			if hop+1 < len(route) {
				f.routeEdge[s] = g.EdgeBetween(route[hop], route[hop+1])
			} else {
				f.routeEdge[s] = -1
			}
		} else {
			f.routeHop[s], f.routeEdge[s] = -1, -1
			return true
		}
	}
	return false
}

// advance moves a dispatched (en-route or on-trip) driver toward target:
// along the congested road network when one is active, otherwise the
// straight line with the Manhattan detour factor.
func (w *World) advance(s int32, target geo.Point, dt, speed float64, rt *road.Router) bool {
	if w.road == nil {
		return w.fleet.stepToward(s, target, speed*dt/manhattanFactor)
	}
	return w.followRoute(s, target, dt, 0, rt, w.road.Cong.Factors())
}

// roadCruise is the road-mode idle walk: drift toward sampled places
// (hotspot-weighted, like the euclidean cruise) but along streets, one
// clamped leg at a time. Idle legs route on free flow — a cruising driver
// has no passenger clock to optimize — and drive at idleSpeed. Reports
// whether the position moved.
func (w *World) roadCruise(s int32, dt float64, rng *rand.Rand, rt *road.Router, o *shardOps) bool {
	f := &w.fleet
	if w.cfg.Pricing == PricingDriverSet && w.now-f.idleSince[s] > 1200 {
		// No fare for 20 minutes: lower the asking price and keep
		// waiting (lose-shift).
		f.priceFactor[s] = clampFactor(f.priceFactor[s] - 0.1)
		f.idleSince[s] = w.now
	}
	if w.now >= f.cruiseUntil[s] ||
		(f.routeHop[s] < 0 && geo.Dist(f.pos[s], f.cruiseTarget[s]) < 20) {
		tgt := w.samplePlaceRand(rng)
		if v := tgt.Sub(f.pos[s]); v.Norm() > maxCruiseLeg {
			tgt = f.pos[s].Add(v.Scale(maxCruiseLeg / v.Norm()))
		}
		f.cruiseTarget[s] = tgt
		f.cruiseUntil[s] = w.now + int64(120+rng.Intn(600))
	}
	before := f.pos[s]
	w.followRoute(s, f.cruiseTarget[s], dt, idleSpeed, rt, nil)
	if f.pos[s] == before {
		return false
	}
	o.moves[f.typ[s]] = append(o.moves[f.typ[s]], geo.SlotPoint{Slot: s, Pos: f.pos[s]})
	return true
}

// roadTravelTime returns the door-to-door travel time from from to to:
// curb legs to the nearest nodes at road.OffRoadSpeed plus the congested
// route between them. Falls back to the euclidean detour formula when the
// endpoints are not connected.
func roadTravelTime(g *road.Graph, rt *road.Router, factors []float64, from, to geo.Point) float64 {
	a, b := g.NearestNode(from), g.NearestNode(to)
	sec, _, ok := rt.Route(a, b, factors)
	if !ok {
		return geo.Dist(from, to) * manhattanFactor / road.OffRoadSpeed
	}
	return geo.Dist(from, g.NodePos(a))/road.OffRoadSpeed + sec +
		geo.Dist(g.NodePos(b), to)/road.OffRoadSpeed
}

// roadEWT is the road-mode wait-time formula: dispatch overhead plus the
// congested road travel time of the car, capped at the paper's observed
// maximum. World.EWT uses it with the live factor table, Snapshot.EWT
// with the frozen clone — same formula, so the two agree at a tick
// boundary.
func roadEWT(g *road.Graph, rt *road.Router, factors []float64, carPos, pos geo.Point) float64 {
	t := dispatchOverhead + roadTravelTime(g, rt, factors, carPos, pos)
	if t > maxEWTSeconds {
		t = maxEWTSeconds
	}
	return t
}

// roadEWTFrom is roadEWT against the live world (serial phases only).
func (w *World) roadEWTFrom(carPos, pos geo.Point) float64 {
	return roadEWT(w.road.Graph, w.roadRouter, w.road.Cong.Factors(), carPos, pos)
}

// roadTripEstimate returns the street distance (meters) and congested
// duration (seconds, excluding boarding time) of a pickup→dest trip.
func roadTripEstimate(g *road.Graph, rt *road.Router, factors []float64, pickup, dest geo.Point) (meters, seconds float64) {
	a, b := g.NearestNode(pickup), g.NearestNode(dest)
	sec, m, ok := rt.Route(a, b, factors)
	if !ok {
		m = geo.Dist(pickup, dest) * manhattanFactor
		return m, m / road.OffRoadSpeed
	}
	legA := geo.Dist(pickup, g.NodePos(a))
	legB := geo.Dist(g.NodePos(b), dest)
	return legA + m + legB, legA/road.OffRoadSpeed + sec + legB/road.OffRoadSpeed
}

// roadPickCandidate is the road-mode dispatch refinement: among up to
// roadRefineK still-idle straight-line-nearest candidates within the
// dispatch radius, pick the one with the lowest congested road ETA (ties:
// the straight-line-nearest, since it is considered first). Runs in the
// serial commit, so the single serial router suffices.
func (w *World) roadPickCandidate(sub *subPlan) (int32, bool) {
	f := &w.fleet
	g := w.road.Graph
	factors := w.road.Cong.Factors()
	best := int32(-1)
	var bestETA float64
	consider := func(slot int32, dist float64) {
		if dist > dispatchRadius {
			return
		}
		eta := roadTravelTime(g, w.roadRouter, factors, f.pos[slot], sub.pickup)
		if best < 0 || eta < bestETA {
			best, bestETA = slot, eta
		}
	}
	n := 0
	for i := 0; i < int(sub.candN) && n < roadRefineK; i++ {
		c := sub.cand[i]
		if DriverState(f.state[c.slot]) != StateIdle {
			continue
		}
		n++
		consider(c.slot, c.dist)
	}
	if best < 0 && !sub.candAll {
		// No in-radius candidate survived from the phase-start list — either
		// earlier bookings this tick took them all, or the only idle entries
		// left sit beyond the dispatch radius. Re-query the live grid, like
		// the euclidean fallback. (Gating on n == 0 would skip the re-query
		// whenever an out-of-radius idle candidate inflated the count.)
		w.knnBuf = w.grids[sub.vt].KNearestInto(sub.pickup, roadRefineK, w.knnBuf)
		for _, nbr := range w.knnBuf {
			consider(nbr.Slot, nbr.Dist)
		}
	}
	return best, best >= 0
}

// roadTally counts each busy driver on its current edge and commits the
// tick's loads into the congestion table. Serial stats phase only. In a
// shared-network setup (two services on one city's streets) every world
// tallies but only the harness commits, once, after all of them.
func (w *World) roadTally() {
	if w.road == nil {
		return
	}
	f := &w.fleet
	cong := w.road.Cong
	for s := int32(0); int(s) < f.high; s++ {
		if !f.live[s] || DriverState(f.state[s]) == StateIdle {
			continue
		}
		if e := f.routeEdge[s]; e >= 0 {
			cong.AddLoad(e)
		}
	}
	if !w.cfg.RoadShared {
		cong.Commit()
	}
}
