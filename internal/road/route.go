package road

import "math"

// Point-to-point routing: bidirectional A* with ALT (A*, Landmarks,
// Triangle inequality) lower bounds.
//
// Landmarks are chosen by farthest-point sampling over base (free-flow)
// times, and their single-source distance tables are stored node-major:
// one row of landmark distances per node. For a query s→t the forward
// potential is
//
//	pf(v) = (πf(v) − πb(v)) / 2
//	πf(v) = max_L |d(L,v) − d(L,t)|   (lower bound on d(v,t))
//	πb(v) = max_L |d(L,v) − d(L,s)|   (lower bound on d(s,v))
//
// and the backward potential is pb = −pf, so pf+pb is the constant 0 and
// the searches stop as soon as topF + topB ≥ μ (the best s→t cost seen).
// Both potentials are feasible on the *congested* graph: the landmark
// tables are over base times, congestion factors are ≥ 1, and the base
// graph is symmetric, so for any edge (u,v),
// pf(u) − pf(v) ≤ d_base(u,v) ≤ cost(u,v).
//
// The returned cost is recomputed as the ordered s→t sum over the found
// path, so when the shortest path is unique it is bit-for-bit equal to a
// textbook Dijkstra's dist[t] (which accumulates along the same chain in
// the same order) — the property test pins this.

// defaultLandmarks is how many ALT landmarks Generate precomputes.
const defaultLandmarks = 8

// computeLandmarks farthest-point-samples k landmarks and stores their
// base-time distance tables node-major (see Graph.lm). Deterministic: the
// seed vertex is the node farthest from node 0.
func (g *Graph) computeLandmarks(k int) {
	n := g.NumNodes()
	if n == 0 || k <= 0 {
		return
	}
	if k > n {
		k = n
	}
	d0 := g.baseDijkstra(0)
	cur, best := int32(0), -1.0
	for v, dv := range d0 {
		if !math.IsInf(dv, 1) && dv > best {
			best, cur = dv, int32(v)
		}
	}
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = math.Inf(1)
	}
	tables := make([][]float64, 0, k)
	for len(tables) < k {
		d := g.baseDijkstra(cur)
		tables = append(tables, d)
		next, far := int32(-1), 0.0
		for v := range minD {
			if d[v] < minD[v] {
				minD[v] = d[v]
			}
			if !math.IsInf(minD[v], 1) && minD[v] > far {
				far, next = minD[v], int32(v)
			}
		}
		if next < 0 || far == 0 {
			break
		}
		cur = next
	}
	g.nlm = len(tables)
	g.lm = make([]float64, n*g.nlm)
	for l, d := range tables {
		for v, dv := range d {
			g.lm[v*g.nlm+l] = dv
		}
	}
}

// landmarks returns node v's row of landmark distances.
func (g *Graph) landmarks(v int32) []float64 {
	i := int(v) * g.nlm
	return g.lm[i : i+g.nlm : i+g.nlm]
}

// baseDijkstra returns single-source free-flow distances from src.
func (g *Graph) baseDijkstra(src int32) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	h := pq{{key: 0, node: src}}
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v := g.to[e]
			if nd := dist[u] + g.base[e]; nd < dist[v] {
				dist[v] = nd
				h.push(pqItem{key: nd, node: v})
			}
		}
	}
	return dist
}

// pqItem is one binary-heap entry.
type pqItem struct {
	key  float64
	node int32
}

// pq is a slice-backed binary min-heap with lazy deletion (stale entries
// are skipped by the settled check at pop sites).
type pq []pqItem

func (h *pq) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].key <= s[i].key {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *pq) pop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s[l].key < s[m].key {
			m = l
		}
		if r < n && s[r].key < s[m].key {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// Router holds the per-query scratch of the bidirectional search. A
// Router serves one query at a time; the sim keeps one per movement worker
// (and one for serial phases), the snapshot query path borrows from the
// graph's pool. Version stamps make query start O(1) — no array clearing.
type Router struct {
	g *Graph

	// labels holds each node's search state in one 48-byte record, so
	// relaxing an edge reads and writes one record of its head, not six
	// arrays.
	labels []label
	stamp  int32

	heapF, heapB pq
	lmS, lmT     []float64 // landmark distances to s and t, per query
	path         []int32

	work Work
}

// label is one node's state in the current query. A field is valid only
// while its stamp equals the router's: seenF (seenB) says the forward
// (backward) search has reached the node, so distF and parF (distB and
// parB) hold its best label; doneF (doneB) that the search settled it.
// pot memoizes the forward potential pf: it is computed the first time
// either search reaches the node, so it is valid while seenF or seenB is.
type label struct {
	distF, distB float64
	pot          float64
	parF, parB   int32 // parent toward s / toward t
	seenF, seenB int32
	doneF, doneB int32
}

// Work counts a router's search effort since it was made: queries
// answered, nodes settled (forward and backward) and landmark potentials
// evaluated. The counts are plain fields of the router, so the caller that
// owns it sums them after its parallel phase; a router borrowed through
// AcquireRouter counts into itself and nobody reads it.
type Work struct {
	Routes, Settled, Potentials int64
}

// Add adds o's counts to w.
func (w *Work) Add(o Work) {
	w.Routes += o.Routes
	w.Settled += o.Settled
	w.Potentials += o.Potentials
}

// Work returns what r has done since it was made.
func (r *Router) Work() Work { return r.work }

// NewRouter returns a router bound to g.
func NewRouter(g *Graph) *Router {
	return &Router{
		g:      g,
		labels: make([]label, g.NumNodes()),
		lmS:    make([]float64, g.nlm), lmT: make([]float64, g.nlm),
	}
}

// cost returns edge e's traversal time under the factor table (nil =
// free flow).
func edgeCost(g *Graph, factors []float64, e int32) float64 {
	if factors == nil {
		return g.base[e]
	}
	return g.base[e] * factors[e]
}

// pf is the forward potential at v (backward is its negation). The two
// maxima run over the terms' bit patterns, which order as their values
// do: each term is an absolute value, so its sign bit is clear, and a
// non-negative float's bits grow with it, +Inf included. A NaN term
// (Inf − Inf, a landmark that reaches neither v nor the endpoint) has
// bits above +Inf's; it is zeroed, so it is ignored, as a float > compare
// would ignore it. Integer maxima compile without branches.
func (r *Router) pf(v int32) float64 {
	const sign, inf = 1 << 63, 0x7ff0_0000_0000_0000
	r.work.Potentials++
	row := r.g.landmarks(v)
	lmS, lmT := r.lmS[:len(row)], r.lmT[:len(row)]
	var hf, hb uint64
	for l, d := range row {
		f := math.Float64bits(d-lmT[l]) &^ sign
		if f > inf {
			f = 0
		}
		hf = max(hf, f)
		b := math.Float64bits(d-lmS[l]) &^ sign
		if b > inf {
			b = 0
		}
		hb = max(hb, b)
	}
	return (math.Float64frombits(hf) - math.Float64frombits(hb)) / 2
}

// potential returns pf(v) from v's label, computing it there when neither
// search has reached v yet in this query. Call it before marking v seen.
func (r *Router) potential(v int32, lv *label, st int32) float64 {
	if lv.seenF != st && lv.seenB != st {
		lv.pot = r.pf(v)
	}
	return lv.pot
}

// Route returns the congested travel time and street distance of the
// shortest s→t path; ok is false when no path exists. factors is the
// per-edge congestion table (nil = free flow); it is only read.
func (r *Router) Route(from, to int32, factors []float64) (seconds, meters float64, ok bool) {
	r.path, seconds, meters, ok = r.route(from, to, factors, r.path[:0])
	return seconds, meters, ok
}

// RoutePath is Route, also appending the node sequence (from … to) to
// buf and returning it.
func (r *Router) RoutePath(from, to int32, factors []float64, buf []int32) (path []int32, seconds, meters float64, ok bool) {
	return r.route(from, to, factors, buf)
}

func (r *Router) route(from, to int32, factors []float64, buf []int32) ([]int32, float64, float64, bool) {
	g := r.g
	r.work.Routes++
	if from == to {
		return append(buf, from), 0, 0, true
	}
	r.stamp++
	if r.stamp == math.MaxInt32 {
		// Stamp wrap (after ~2^31 queries): flush the labels so stale
		// stamps can never collide with reused values.
		clear(r.labels)
		r.stamp = 1
	}
	copy(r.lmS, g.landmarks(from))
	copy(r.lmT, g.landmarks(to))
	r.heapF = r.heapF[:0]
	r.heapB = r.heapB[:0]
	st := r.stamp
	labels := r.labels

	ls := &labels[from]
	ls.distF = 0
	ls.pot = r.pf(from)
	ls.seenF = st
	ls.parF = -1
	r.heapF.push(pqItem{key: ls.pot, node: from})

	lt := &labels[to]
	lt.distB = 0
	lt.pot = r.pf(to)
	lt.seenB = st
	lt.parB = -1
	r.heapB.push(pqItem{key: -lt.pot, node: to})

	mu := math.Inf(1)
	meetF, meetB := int32(-1), int32(-1)

	// relaxF settles u forward and scans its outgoing edges.
	relaxF := func(u int32) {
		du := labels[u].distF
		for e := g.start[u]; e < g.start[u+1]; e++ {
			v := g.to[e]
			lv := &labels[v]
			if lv.doneF == st {
				continue
			}
			nd := du + edgeCost(g, factors, e)
			if lv.seenF != st || nd < lv.distF {
				pot := r.potential(v, lv, st)
				lv.distF = nd
				lv.seenF = st
				lv.parF = u
				r.heapF.push(pqItem{key: nd + pot, node: v})
			}
			if lv.seenB == st {
				if c := nd + lv.distB; c < mu {
					mu, meetF, meetB = c, u, v
				}
			}
		}
	}
	// relaxB settles x backward and scans its incoming edges via the
	// reverse-partner table (every street has both directions).
	relaxB := func(x int32) {
		dx := labels[x].distB
		for e := g.start[x]; e < g.start[x+1]; e++ {
			u := g.to[e]
			lu := &labels[u]
			if lu.doneB == st {
				continue
			}
			rev := g.rev[e] // original edge u→x
			nd := dx + edgeCost(g, factors, rev)
			if lu.seenB != st || nd < lu.distB {
				pot := r.potential(u, lu, st)
				lu.distB = nd
				lu.seenB = st
				lu.parB = x
				r.heapB.push(pqItem{key: nd - pot, node: u})
			}
			if lu.seenF == st {
				if c := lu.distF + edgeCost(g, factors, rev) + dx; c < mu {
					mu, meetF, meetB = c, u, x
				}
			}
		}
	}

	for len(r.heapF) > 0 && len(r.heapB) > 0 {
		if r.heapF[0].key+r.heapB[0].key >= mu {
			break
		}
		if r.heapF[0].key <= r.heapB[0].key {
			it := r.heapF.pop()
			u := it.node
			if labels[u].doneF == st {
				continue
			}
			labels[u].doneF = st
			r.work.Settled++
			relaxF(u)
		} else {
			it := r.heapB.pop()
			x := it.node
			if labels[x].doneB == st {
				continue
			}
			labels[x].doneB = st
			r.work.Settled++
			relaxB(x)
		}
	}
	if math.IsInf(mu, 1) {
		return buf, 0, 0, false
	}

	// Assemble s..meetF then meetB..t, then recompute the cost as the
	// ordered s→t sum so it is bit-equal to a serial Dijkstra's.
	head := len(buf)
	for v := meetF; v >= 0; v = labels[v].parF {
		buf = append(buf, v)
	}
	// Reverse the prefix in place (it was appended meetF→s).
	for i, j := head, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	for v := meetB; v >= 0; v = labels[v].parB {
		buf = append(buf, v)
	}
	var seconds, meters float64
	for i := head; i+1 < len(buf); i++ {
		e := g.EdgeBetween(buf[i], buf[i+1])
		seconds += edgeCost(g, factors, e)
		meters += g.length[e]
	}
	return buf, seconds, meters, true
}
