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
// Commit — a serial-phase call. Each movement worker owns a preallocated
// router, so the parallel phase performs no locking and no allocation;
// a route is a pure function of the graph, the factors and its endpoints,
// so results stay bit-identical for every worker count. The congestion
// tally walks slots in slot order inside the serial stats phase.

import (
	"math/rand"

	"repro/internal/geo"
	"repro/internal/road"
)

// maxCruiseLeg caps how far an idle driver plans one cruise leg when
// cruise retargets in road mode. The hotspot drift of the euclidean cruise
// is preserved (the target direction still comes from samplePlaceRand);
// the clamp just keeps the per-retarget route query short. The first leg
// of a session (drawLogon) and the leg after a trip ends (moveOne) are
// drawn without it.
const maxCruiseLeg = 600.0

// Road returns the world's street network, or nil when the world moves
// drivers on the euclidean plane.
func (w *World) Road() *road.Network { return w.cfg.Road }

// RoadWork sums the search work of the world's own routers since it was
// made: the serial phases' and the movement phase's. It is for tests and
// benchmarks, read between Steps; the routers a Snapshot borrows from the
// graph's pool are not counted. A world on the plane reads zero.
func (w *World) RoadWork() road.Work {
	var sum road.Work
	if m, ok := w.mv.(*street); ok {
		sum.Add(m.rt.Work())
	}
	for _, mv := range w.workerMv {
		if m, ok := mv.(*street); ok {
			sum.Add(m.rt.Work())
		}
	}
	return sum
}

// street is the road-network mover. Each copy owns its router: the
// world's serves the serial phases (dispatch, fares, EWT), every movement
// worker drives with a fork. All copies share the route columns, which a
// shard writes only for its own slots, as it writes the fleet's.
type street struct {
	w   *World
	net *road.Network
	rt  *road.Router
	*routes
	// commit: the world built net itself, so tally commits its congestion.
	commit bool
}

// routes is the street mover's per-slot state, columns indexed by slot
// like the fleet's and grown with it by reset, so only a world on streets
// holds them: the planned node path, the next hop's index into it (-1 =
// no route), that hop's node (-1 = past the path's end: the egress leg to
// the goal), the directed edge currently being traversed (-1 = the
// off-road approach/egress leg), and the goal the route was planned for
// (a mismatch triggers a replan — how POOL diversions and fresh dispatches
// pick up their new destination). routeNext repeats route[s][routeHop[s]]
// in a dense column, so a car between two nodes — most car-ticks — never
// reads its path buffer.
type routes struct {
	route     [][]int32
	routeHop  []int32
	routeNext []int32
	routeEdge []int32
	routeGoal []geo.Point
}

func newStreet(w *World, net *road.Network, commit bool) *street {
	return &street{w: w, net: net, rt: road.NewRouter(net.Graph), routes: &routes{}, commit: commit}
}

// refineK: the straight-line top-k is the pre-filter (and the radius cut
// stays straight-line, so the candidate set matches the plane's); the
// congested road ETA picks among them.
func (m *street) refineK() int { return 4 }

func (m *street) forWorker() mover {
	fork := *m
	fork.rt = road.NewRouter(m.net.Graph)
	return &fork
}

// reset clears slot s's route, first extending the columns to cover it
// (a slot is new only at the fleet's high end). A recycled slot keeps its
// path buffer's capacity and replans into it.
func (r *routes) reset(s int32) {
	for int(s) >= len(r.routeHop) {
		r.route = append(r.route, nil)
		r.routeHop = append(r.routeHop, -1)
		r.routeNext = append(r.routeNext, -1)
		r.routeEdge = append(r.routeEdge, -1)
		r.routeGoal = append(r.routeGoal, geo.Point{})
	}
	r.route[s] = r.route[s][:0]
	r.routeHop[s] = -1
	r.routeNext[s] = -1
	r.routeEdge[s] = -1
	r.routeGoal[s] = geo.Point{}
}

// planRoute computes a fresh route for slot s from its position to
// target, reusing the slot's route buffer. factors selects congested
// (live table) or free-flow (nil) edge costs. On failure (disconnected
// endpoints cannot happen on generated graphs, but custom networks may)
// the route is left empty and followRoute falls back to a straight leg.
func (m *street) planRoute(s int32, target geo.Point, factors []float64) {
	f := &m.w.fleet
	g := m.net.Graph
	from := g.NearestNode(f.pos[s])
	to := g.NearestNode(target)
	path, _, _, ok := m.rt.RoutePath(from, to, factors, m.route[s][:0])
	if !ok {
		path = path[:0]
	}
	m.route[s] = path
	m.routeHop[s] = 0
	m.routeNext[s] = -1
	if len(path) > 0 {
		m.routeNext[s] = path[0]
	}
	m.routeEdge[s] = -1
	m.routeGoal[s] = target
}

// followRoute advances slot s along its planned route toward target by
// dt seconds, replanning when the goal changed or no route exists.
// fixedSpeed > 0 forces that speed on every leg (idle cruising);
// otherwise legs on graph edges run at the edge's congested speed and
// the off-road approach/egress legs at road.OffRoadSpeed. Reports
// whether the target was reached this tick.
func (m *street) followRoute(s int32, target geo.Point, dt, fixedSpeed float64, factors []float64) bool {
	f := &m.w.fleet
	g := m.net.Graph
	if m.routeHop[s] < 0 || m.routeGoal[s] != target {
		m.planRoute(s, target, factors)
	}
	budget := dt
	for budget > 0 {
		nv := m.routeNext[s]
		var next geo.Point
		sp := fixedSpeed
		if nv >= 0 {
			next = g.NodePos(nv)
			if sp <= 0 {
				if e := m.routeEdge[s]; e >= 0 {
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
		if nv < 0 {
			m.routeHop[s], m.routeEdge[s] = -1, -1
			return true
		}
		hop := m.routeHop[s] + 1
		m.routeHop[s] = hop
		if route := m.route[s]; int(hop) < len(route) {
			m.routeNext[s] = route[hop]
			m.routeEdge[s] = g.EdgeBetween(nv, route[hop])
		} else {
			m.routeNext[s], m.routeEdge[s] = -1, -1
		}
	}
	return false
}

// advance follows the congested shortest route.
func (m *street) advance(s int32, target geo.Point, dt float64) bool {
	return m.followRoute(s, target, dt, 0, m.net.Cong.Factors())
}

// cruise drifts toward sampled places (hotspot-weighted, like the plane's)
// but along streets, one clamped leg at a time. Idle legs route on free
// flow — a cruising driver has no passenger clock to optimize — and drive
// at idleSpeed.
func (m *street) cruise(s int32, dt float64, rng *rand.Rand) {
	w, f := m.w, &m.w.fleet
	if w.now >= f.cruiseUntil[s] ||
		(m.routeHop[s] < 0 && geo.Dist(f.pos[s], f.cruiseTarget[s]) < 20) {
		tgt := w.samplePlaceRand(rng)
		if v := tgt.Sub(f.pos[s]); v.Norm() > maxCruiseLeg {
			tgt = f.pos[s].Add(v.Scale(maxCruiseLeg / v.Norm()))
		}
		f.cruiseTarget[s] = tgt
		f.cruiseUntil[s] = w.now + int64(120+rng.Intn(600))
	}
	m.followRoute(s, f.cruiseTarget[s], dt, idleSpeed, nil)
}

// trip is upfront pricing on the actual street route under current
// congestion, not the flat detour factor.
func (m *street) trip(from, to geo.Point) (meters, seconds float64) {
	return roadTrip(m.net.Graph, m.rt, m.net.Cong.Factors(), from, to)
}

// freeze copies the factor table into buf (the graph is immutable and
// shared), so estimates served from a snapshot are unaffected by later
// congestion commits; concurrent readers borrow routers from the graph's
// pool.
func (m *street) freeze(buf []float64) (tripFunc, []float64) {
	g, factors := m.net.Graph, m.net.Cong.CloneFactors(buf)
	return func(from, to geo.Point) (float64, float64) {
		rt := g.AcquireRouter()
		defer g.ReleaseRouter(rt)
		return roadTrip(g, rt, factors, from, to)
	}, factors
}

// roadTrip returns the street distance (meters) and congested duration
// (seconds) from→to door to door: curb legs to the nearest nodes at
// road.OffRoadSpeed plus the route between them. Falls back to the
// euclidean detour formula when the endpoints are not connected.
func roadTrip(g *road.Graph, rt *road.Router, factors []float64, from, to geo.Point) (meters, seconds float64) {
	a, b := g.NearestNode(from), g.NearestNode(to)
	sec, m, ok := rt.Route(a, b, factors)
	if !ok {
		m = geo.Dist(from, to) * manhattanFactor
		return m, m / road.OffRoadSpeed
	}
	legA := geo.Dist(from, g.NodePos(a))
	legB := geo.Dist(g.NodePos(b), to)
	return legA + m + legB, legA/road.OffRoadSpeed + sec + legB/road.OffRoadSpeed
}

// tally counts each busy driver on its current edge and commits the
// tick's loads into the congestion table when the world owns its
// network. A network the caller passed in (two services on one city's
// streets) is tallied by every world but committed only by the caller,
// once, after all of them.
func (m *street) tally() {
	f := &m.w.fleet
	cong := m.net.Cong
	for s := int32(0); int(s) < f.high; s++ {
		if !f.live[s] || DriverState(f.state[s]) == StateIdle {
			continue
		}
		if e := m.routeEdge[s]; e >= 0 {
			cong.AddLoad(e)
		}
	}
	if m.commit {
		cong.Commit()
	}
}
