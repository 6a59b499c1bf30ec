package road

import (
	"math"
	"math/rand"
	"slices"
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
			dt := g.landmarks(tgt)
			for l, d := range g.landmarks(v) {
				if b := math.Abs(d - dt[l]); b > bound {
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

// TestStampWrapFlushesLabels runs a router up to the stamp wrap and checks
// that its answers after the wrap equal a fresh router's. The stamps the
// wrap reuses are those of the queries before it, so without the flush a
// stale seen or done mark — or a potential memoized for another query's
// endpoints — would leak into the new query.
func TestStampWrapFlushesLabels(t *testing.T) {
	g := testGraph(51)
	factors := make([]float64, g.NumEdges())
	rng := rand.New(rand.NewSource(8))
	for e := range factors {
		factors[e] = 1 + rng.Float64()
	}
	n := int32(g.NumNodes())
	r := NewRouter(g)
	for q := 0; q < 20; q++ {
		r.Route(rng.Int31n(n), rng.Int31n(n), factors)
	}
	r.stamp = math.MaxInt32 - 1
	for q := 0; q < 20; q++ {
		from, to := rng.Int31n(n), rng.Int31n(n)
		if from == to {
			continue
		}
		p1, s1, m1, ok1 := r.RoutePath(from, to, factors, nil)
		if q == 0 && r.stamp != 1 {
			t.Fatalf("stamp %d after the wrap, want 1", r.stamp)
		}
		p2, s2, m2, ok2 := NewRouter(g).RoutePath(from, to, factors, nil)
		if ok1 != ok2 || s1 != s2 || m1 != m2 || !slices.Equal(p1, p2) {
			t.Fatalf("query %d after the wrap, %d→%d: %v %v %v, a fresh router %v %v %v",
				q, from, to, s1, m1, p1, s2, m2, p2)
		}
	}
}

// handGraph builds a graph from node positions and two-way local streets,
// with its landmarks; unlike Generate it can be disconnected.
func handGraph(nodes []geo.Point, streets [][2]int32) *Graph {
	g := &Graph{nodes: nodes, start: make([]int32, len(nodes)+1)}
	for _, st := range streets {
		g.start[st[0]+1]++
		g.start[st[1]+1]++
	}
	for v := range nodes {
		g.start[v+1] += g.start[v]
	}
	m := g.start[len(nodes)]
	g.to = make([]int32, m)
	g.length = make([]float64, m)
	g.base = make([]float64, m)
	g.class = make([]uint8, m)
	g.rev = make([]int32, m)
	fill := slices.Clone(g.start[:len(nodes)])
	add := func(a, b int32) int32 {
		e := fill[a]
		fill[a]++
		g.to[e] = b
		g.length[e] = geo.Dist(nodes[a], nodes[b])
		g.base[e] = g.length[e] / classSpeed[ClassLocal]
		return e
	}
	for _, st := range streets {
		ab, ba := add(st[0], st[1]), add(st[1], st[0])
		g.rev[ab], g.rev[ba] = ba, ab
	}
	g.buildNodeGrid(200)
	g.computeLandmarks(defaultLandmarks)
	return g
}

// gridStreets appends a w×h block grid of nodes at origin o, 100 m apart,
// and its streets.
func gridStreets(nodes []geo.Point, streets [][2]int32, o geo.Point, w, h int) ([]geo.Point, [][2]int32) {
	base := int32(len(nodes))
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			v := base + int32(j*w+i)
			nodes = append(nodes, geo.Point{X: o.X + float64(i)*100, Y: o.Y + float64(j)*100})
			if i > 0 {
				streets = append(streets, [2]int32{v - 1, v})
			}
			if j > 0 {
				streets = append(streets, [2]int32{v - int32(w), v})
			}
		}
	}
	return nodes, streets
}

// TestRouteDisconnected routes on a graph of two components. Every
// landmark lies in the first, so the second's landmark distances are all
// +Inf and its potentials take Inf − Inf = NaN terms, which the > compare
// in pf ignores. A route across components must report no path, and one
// inside either must equal the reference Dijkstra's.
func TestRouteDisconnected(t *testing.T) {
	nodes, streets := gridStreets(nil, nil, geo.Point{}, 5, 4)
	split := int32(len(nodes))
	nodes, streets = gridStreets(nodes, streets, geo.Point{X: 1000, Y: 50}, 3, 3)
	g := handGraph(nodes, streets)
	if g.nlm == 0 || !math.IsInf(g.landmarks(split)[0], 1) {
		t.Fatalf("landmarks %v of the second component's node, want +Inf", g.landmarks(split))
	}
	rng := rand.New(rand.NewSource(12))
	factors := make([]float64, g.NumEdges())
	for e := range factors {
		factors[e] = 1 + rng.Float64()*2
	}
	r := NewRouter(g)
	n := int32(g.NumNodes())
	for _, fac := range [][]float64{nil, factors} {
		for from := int32(0); from < n; from++ {
			for to := int32(0); to < n; to++ {
				want, wok := refDijkstra(g, fac, from, to)
				sec, _, ok := r.Route(from, to, fac)
				if across := (from < split) != (to < split); across && (ok || wok) {
					t.Fatalf("%d→%d across components: ok=%v, reference ok=%v", from, to, ok, wok)
				}
				if ok != wok || (ok && sec != want) {
					t.Fatalf("%d→%d: route %v ok=%v, reference %v ok=%v", from, to, sec, ok, want, wok)
				}
			}
		}
	}
}

// TestPotentialMatchesFloatMaxima pins pf's bit-pattern maxima to the
// float form they replace: the larger absolute difference by a > compare,
// which ignores NaN. The rows mix finite distances, zeros and the +Inf a
// landmark has for a node it cannot reach, so the differences cover
// negative values, −0, ±Inf and NaN.
func TestPotentialMatchesFloatMaxima(t *testing.T) {
	ref := func(row, lmS, lmT []float64) float64 {
		var hf, hb float64
		for l, d := range row {
			if f := math.Abs(d - lmT[l]); f > hf {
				hf = f
			}
			if b := math.Abs(d - lmS[l]); b > hb {
				hb = b
			}
		}
		return (hf - hb) / 2
	}
	const k, nodes = 8, 64
	rng := rand.New(rand.NewSource(5))
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Inf(1)
		default:
			return rng.Float64() * 3000
		}
	}
	g := &Graph{lm: make([]float64, nodes*k), nlm: k}
	for i := range g.lm {
		g.lm[i] = draw()
	}
	r := &Router{g: g, lmS: make([]float64, k), lmT: make([]float64, k)}
	for q := 0; q < 200; q++ {
		for l := 0; l < k; l++ {
			r.lmS[l], r.lmT[l] = draw(), draw()
		}
		for v := int32(0); v < nodes; v++ {
			got, want := r.pf(v), ref(g.landmarks(v), r.lmS, r.lmT)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("query %d, node %d: pf %v, float maxima %v (row %v, s %v, t %v)",
					q, v, got, want, g.landmarks(v), r.lmS, r.lmT)
			}
		}
	}
}
