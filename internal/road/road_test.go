package road

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func testGraph(seed uint64) *Graph {
	return Generate(GenConfig{
		Region: geo.NewRect(geo.Point{X: -1500, Y: -1200}, geo.Point{X: 1500, Y: 1200}),
		Block:  130,
		Seed:   seed,
	})
}

// graphFingerprint hashes every structural field of the graph.
func graphFingerprint(g *Graph) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, p := range g.nodes {
		mix(math.Float64bits(p.X))
		mix(math.Float64bits(p.Y))
	}
	for i, e := range g.to {
		mix(uint64(e))
		mix(math.Float64bits(g.base[i]))
		mix(math.Float64bits(g.length[i]))
		mix(uint64(g.class[i]))
	}
	for _, s := range g.start {
		mix(uint64(s))
	}
	return h
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := testGraph(7), testGraph(7)
	if graphFingerprint(a) != graphFingerprint(b) {
		t.Fatal("same config produced different graphs")
	}
	c := testGraph(8)
	if graphFingerprint(a) == graphFingerprint(c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGraphConnected(t *testing.T) {
	for _, g := range []*Graph{
		testGraph(1),
		ForProfile("manhattan", geo.NewRect(geo.Point{X: -1700, Y: -1500}, geo.Point{X: 1700, Y: 1500})).Graph,
		ForProfile("sf", geo.NewRect(geo.Point{X: -2400, Y: -2400}, geo.Point{X: 2400, Y: 2400})).Graph,
	} {
		n := g.NumNodes()
		seen := make([]bool, n)
		queue := []int32{0}
		seen[0] = true
		reached := 1
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for e := g.start[u]; e < g.start[u+1]; e++ {
				if v := g.to[e]; !seen[v] {
					seen[v] = true
					reached++
					queue = append(queue, v)
				}
			}
		}
		if reached != n {
			t.Fatalf("graph disconnected: reached %d of %d nodes", reached, n)
		}
	}
}

func TestReverseEdges(t *testing.T) {
	g := testGraph(3)
	for a := int32(0); int(a) < g.NumNodes(); a++ {
		for e := g.start[a]; e < g.start[a+1]; e++ {
			rev := g.rev[e]
			if rev < 0 || g.to[rev] != a {
				t.Fatalf("edge %d: rev %d does not return to %d", e, rev, a)
			}
			if g.base[rev] != g.base[e] {
				t.Fatalf("edge %d: asymmetric base time", e)
			}
		}
	}
}

func TestNearestNodeExact(t *testing.T) {
	g := testGraph(11)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := geo.Point{
			X: (rng.Float64() - 0.5) * 4000,
			Y: (rng.Float64() - 0.5) * 3500,
		}
		got := g.NearestNode(p)
		best, bestD := int32(-1), math.Inf(1)
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			if d := geo.Dist(p, g.NodePos(v)); d < bestD {
				best, bestD = v, d
			}
		}
		if got != best {
			t.Fatalf("NearestNode(%v) = %d (%.2fm), brute force %d (%.2fm)",
				p, got, geo.Dist(p, g.NodePos(got)), best, bestD)
		}
	}
}

// TestNearestNodeZeroAlloc: route planning snaps both endpoints of every
// query, inside the sim's allocation-free move phase, so the scan closure
// NearestNode hands to the ring walk must stay on the stack.
func TestNearestNodeZeroAlloc(t *testing.T) {
	g := testGraph(11)
	p := geo.Point{X: 333, Y: -777}
	if avg := testing.AllocsPerRun(200, func() { _ = g.NearestNode(p) }); avg != 0 {
		t.Fatalf("NearestNode allocates %.1f times per call, want 0", avg)
	}
}

// nearestSink keeps BenchmarkNearestNode's calls from being optimised away.
var nearestSink int32

// BenchmarkNearestNode measures one road snap on the ~50k-node benchmark
// street grid, at uniform points of its region.
func BenchmarkNearestNode(b *testing.B) {
	g := BenchGraph()
	rng := rand.New(rand.NewSource(3))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{X: (rng.Float64() - 0.5) * 22400, Y: (rng.Float64() - 0.5) * 22400}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink = g.NearestNode(pts[i%len(pts)])
	}
}

// refDijkstra is the brute-force reference: plain Dijkstra over the
// congested costs, accumulating dist along parent chains — the ordered
// path sum the router must reproduce bit for bit.
func refDijkstra(g *Graph, factors []float64, from, to int32) (float64, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[from] = 0
	h := pq{{key: 0, node: from}}
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		if u == to {
			return dist[u], true
		}
		done[u] = true
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v := g.to[e]
			if nd := dist[u] + edgeCost(g, factors, e); nd < dist[v] {
				dist[v] = nd
				h.push(pqItem{key: nd, node: v})
			}
		}
	}
	return 0, false
}

// TestRouteMatchesDijkstra is the property test pinning A*+ALT to the
// brute-force reference: random seeded graphs, random congestion, random
// endpoint pairs, exact float equality.
func TestRouteMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for gi := 0; gi < 4; gi++ {
		g := Generate(GenConfig{
			Region: geo.NewRect(
				geo.Point{X: -1000 - rng.Float64()*1000, Y: -900 - rng.Float64()*800},
				geo.Point{X: 1000 + rng.Float64()*1000, Y: 900 + rng.Float64()*800}),
			Block:      100 + rng.Float64()*60,
			Bridges:    2 + rng.Intn(3),
			JitterFrac: 0.3,
			Seed:       rng.Uint64(),
		})
		// Alternate free flow and random congestion.
		var factors []float64
		if gi%2 == 1 {
			factors = make([]float64, g.NumEdges())
			for e := range factors {
				factors[e] = 1 + rng.Float64()*2.5
			}
		}
		r := NewRouter(g)
		n := int32(g.NumNodes())
		for q := 0; q < 40; q++ {
			from, to := rng.Int31n(n), rng.Int31n(n)
			want, wok := refDijkstra(g, factors, from, to)
			path, sec, meters, ok := r.RoutePath(from, to, factors, nil)
			if ok != wok {
				t.Fatalf("graph %d %d→%d: ok=%v want %v", gi, from, to, ok, wok)
			}
			if !ok {
				continue
			}
			if sec != want {
				t.Fatalf("graph %d %d→%d: route cost %v != dijkstra %v (Δ %g)",
					gi, from, to, sec, want, sec-want)
			}
			if path[0] != from || path[len(path)-1] != to {
				t.Fatalf("graph %d: path endpoints %d..%d, want %d..%d",
					gi, path[0], path[len(path)-1], from, to)
			}
			var wantM float64
			for i := 0; i+1 < len(path); i++ {
				e := g.EdgeBetween(path[i], path[i+1])
				if e < 0 {
					t.Fatalf("graph %d: path hop %d→%d is not an edge", gi, path[i], path[i+1])
				}
				wantM += g.length[e]
			}
			if meters != wantM {
				t.Fatalf("graph %d: meters %v != path sum %v", gi, meters, wantM)
			}
		}
	}
}

// TestLandmarkBoundsAdmissible checks the ALT potential never exceeds the
// true free-flow distance (admissibility).
func TestLandmarkBoundsAdmissible(t *testing.T) {
	g := testGraph(21)
	rng := rand.New(rand.NewSource(4))
	n := int32(g.NumNodes())
	for q := 0; q < 25; q++ {
		tgt := rng.Int31n(n)
		dist := g.baseDijkstra(tgt) // symmetric: d(v, tgt) too
		for probe := 0; probe < 50; probe++ {
			v := rng.Int31n(n)
			var bound float64
			for _, d := range g.lm {
				if b := math.Abs(d[v] - d[tgt]); b > bound {
					bound = b
				}
			}
			if bound > dist[v]+1e-9 {
				t.Fatalf("landmark bound %g exceeds true distance %g (%d→%d)",
					bound, dist[v], v, tgt)
			}
		}
	}
}

func TestCongestionMonotonic(t *testing.T) {
	g := testGraph(31)
	e := int32(g.NumNodes()) // an arbitrary edge id in range
	if int(e) >= g.NumEdges() {
		e = 0
	}
	// More trips ⇒ never-faster traversal, across repeated commits.
	prevTime := -1.0
	for load := 0; load <= 40; load += 5 {
		c := NewCongestion(g)
		for tick := 0; tick < 10; tick++ {
			for i := 0; i < load; i++ {
				c.AddLoad(e)
			}
			c.Commit()
		}
		tt := g.base[e] * c.Factor(e)
		if tt < prevTime {
			t.Fatalf("load %d: traversal %gs faster than lighter load's %gs", load, tt, prevTime)
		}
		if tt < g.base[e] {
			t.Fatalf("congested traversal %gs below free flow %gs", tt, g.base[e])
		}
		prevTime = tt
	}

	// Decay: after load stops, the factor falls monotonically back to 1.
	c := NewCongestion(g)
	for tick := 0; tick < 10; tick++ {
		for i := 0; i < 30; i++ {
			c.AddLoad(e)
		}
		c.Commit()
	}
	prev := c.Factor(e)
	if prev <= 1 {
		t.Fatal("sustained load never raised the factor")
	}
	for tick := 0; tick < 200; tick++ {
		c.Commit()
		f := c.Factor(e)
		if f > prev {
			t.Fatalf("factor rose without load: %g → %g", prev, f)
		}
		prev = f
	}
	if prev > 1.01 {
		t.Fatalf("factor %g failed to decay toward free flow", prev)
	}

	// The cap holds under any load.
	c2 := NewCongestion(g)
	for tick := 0; tick < 50; tick++ {
		for i := 0; i < 10000; i++ {
			c2.AddLoad(e)
		}
		c2.Commit()
	}
	if f := c2.Factor(e); f > c2.Max {
		t.Fatalf("factor %g exceeds cap %g", f, c2.Max)
	}
}

// TestRouterDeterministic: identical queries on distinct routers (and on
// a reused router) return identical paths and costs — the property the
// per-shard router scheme rests on.
func TestRouterDeterministic(t *testing.T) {
	g := testGraph(41)
	factors := make([]float64, g.NumEdges())
	rng := rand.New(rand.NewSource(6))
	for e := range factors {
		factors[e] = 1 + rng.Float64()
	}
	r1, r2 := NewRouter(g), NewRouter(g)
	n := int32(g.NumNodes())
	for q := 0; q < 30; q++ {
		from, to := rng.Int31n(n), rng.Int31n(n)
		p1, s1, m1, ok1 := r1.RoutePath(from, to, factors, nil)
		// Burn an unrelated query through r2 first: scratch reuse must not
		// leak between queries.
		r2.Route(rng.Int31n(n), rng.Int31n(n), nil)
		p2, s2, m2, ok2 := r2.RoutePath(from, to, factors, nil)
		if ok1 != ok2 || s1 != s2 || m1 != m2 || len(p1) != len(p2) {
			t.Fatalf("%d→%d: routers disagree (%v/%v, %v/%v)", from, to, s1, s2, m1, m2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%d→%d: paths diverge at hop %d", from, to, i)
			}
		}
	}
}

func TestBenchGraphSize(t *testing.T) {
	g := BenchGraph()
	if g.NumNodes() < 45000 {
		t.Fatalf("bench graph has %d nodes, want ~50k", g.NumNodes())
	}
	// A long cross-city route must exist and beat the worst-case straight
	// line at local speed (the ring road and arterials make routes fast).
	r := NewRouter(g)
	a := g.NearestNode(geo.Point{X: -11000, Y: -11000})
	b := g.NearestNode(geo.Point{X: 11000, Y: 11000})
	sec, meters, ok := r.Route(a, b, nil)
	if !ok {
		t.Fatal("no route across the bench graph")
	}
	straight := geo.Dist(g.NodePos(a), g.NodePos(b))
	if meters < straight {
		t.Fatalf("route %gm shorter than straight line %gm", meters, straight)
	}
	if sec > straight/classSpeed[ClassLocal]*2 {
		t.Fatalf("cross-city route %gs implausibly slow", sec)
	}
}
