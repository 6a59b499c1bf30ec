// Package road models the street network the euclidean sim abstracts
// away: a deterministic synthetic graph generator (grid blocks, faster
// arterials, a perimeter ring road, and a river band crossed by a few
// bridges), compact CSR adjacency storage, bidirectional A* point-to-point
// routing with precomputed landmark (ALT) lower bounds, and per-edge
// time-varying congestion fed back from trip density.
//
// Everything in the package is deterministic: the generator derives all
// jitter from hashes of (seed, node), the router is a pure function of
// (graph, congestion factors, endpoints), and the congestion update is a
// serial commit. The sim relies on this — route queries run inside its
// parallel phases and must be bit-for-bit identical for every worker
// count.
package road

import (
	"math"
	"sync"

	"repro/internal/geo"
)

// Edge classes, ordered by typical free-flow speed. The class determines
// the base (uncongested) traversal speed of an edge.
const (
	ClassLocal uint8 = iota // block-to-block street
	ClassBridge
	ClassArterial
	ClassRing
	numClasses
)

// classSpeed is the free-flow speed of each edge class in m/s.
var classSpeed = [numClasses]float64{
	ClassLocal:    6.5,
	ClassBridge:   8.5,
	ClassArterial: 10.0,
	ClassRing:     12.5,
}

// OffRoadSpeed is the speed used for the legs connecting an arbitrary
// point to its nearest graph node (driveway/curb approach).
const OffRoadSpeed = 6.0

// Graph is an immutable street network in compact CSR form: node i's
// outgoing edges are edges [start[i], start[i+1]). Edges are directed;
// the generator emits both directions of every street with identical
// base times, so the base graph is symmetric (the ALT landmark bounds
// depend on this). All methods are safe for concurrent use.
type Graph struct {
	nodes []geo.Point

	start  []int32   // len(nodes)+1
	to     []int32   // head node of each directed edge
	length []float64 // meters
	base   []float64 // free-flow traversal seconds
	class  []uint8
	rev    []int32 // opposite direction of the same street

	// Node-lookup grid (CSR again): cellNodes[cellStart[c]:cellStart[c+1]]
	// lists the nodes in cell c of grid, ascending.
	grid      geo.Cells
	cellStart []int32
	cellNodes []int32

	// lm[v*nlm+l] is the base-time distance from landmark l to node v
	// (symmetric graph: also v to l): node-major, so a node's nlm ≤ 8
	// distances share one 64-byte row. See computeLandmarks.
	lm  []float64
	nlm int

	routers sync.Pool
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.to) }

// NodePos returns the plane position of node v.
func (g *Graph) NodePos(v int32) geo.Point { return g.nodes[v] }

// EdgeSpeed returns edge e's free-flow speed in m/s.
func (g *Graph) EdgeSpeed(e int32) float64 { return classSpeed[g.class[e]] }

// EdgeBetween returns the directed edge from a to b, or -1. Degrees are
// ≤ 4, so the scan is constant-time.
func (g *Graph) EdgeBetween(a, b int32) int32 {
	for e := g.start[a]; e < g.start[a+1]; e++ {
		if g.to[e] == b {
			return e
		}
	}
	return -1
}

// NearestNode returns the node closest to p (ties broken by lowest
// index). Every node lies inside the grid's bounds, so the ring walk's
// stop rule makes the answer exact, not approximate.
func (g *Graph) NearestNode(p geo.Point) int32 {
	best, bestD := int32(-1), math.Inf(1)
	g.grid.WalkRings(p, func(c int) float64 {
		for _, v := range g.cellNodes[g.cellStart[c]:g.cellStart[c+1]] {
			if geo.AxisBeyond(p, g.nodes[v], bestD) {
				continue
			}
			d := geo.Dist(p, g.nodes[v])
			if best < 0 || d < bestD || (d == bestD && v < best) {
				best, bestD = v, d
			}
		}
		return bestD
	})
	return best
}

// AcquireRouter returns a router bound to this graph from an internal
// pool; callers on concurrent query paths (snapshot EWT) use this instead
// of holding a router per goroutine. Release with ReleaseRouter.
func (g *Graph) AcquireRouter() *Router {
	if r, ok := g.routers.Get().(*Router); ok {
		return r
	}
	return NewRouter(g)
}

// ReleaseRouter returns a router obtained from AcquireRouter to the pool.
func (g *Graph) ReleaseRouter(r *Router) { g.routers.Put(r) }

// buildNodeGrid indexes the nodes into cells of roughly 2 blocks for
// NearestNode queries.
func (g *Graph) buildNodeGrid(cellSize float64) {
	g.grid = geo.NewCells(boundsOf(g.nodes), cellSize)
	cells := g.grid.NumCells()
	counts := make([]int32, cells+1)
	idx := make([]int32, len(g.nodes))
	for v, p := range g.nodes {
		c := int32(g.grid.CellIndex(p))
		idx[v] = c
		counts[c+1]++
	}
	for c := 0; c < cells; c++ {
		counts[c+1] += counts[c]
	}
	g.cellStart = counts
	g.cellNodes = make([]int32, len(g.nodes))
	fill := make([]int32, cells)
	// Nodes are visited in ascending order, so each cell's list is sorted.
	for v := range g.nodes {
		c := idx[v]
		g.cellNodes[counts[c]+fill[c]] = int32(v)
		fill[c]++
	}
}

func boundsOf(pts []geo.Point) geo.Rect {
	r := geo.NewRect(pts[0], pts[0])
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}

// Network bundles a graph with its mutable congestion state; the sim and
// the two-service harness share one Network between worlds so trip
// density on either service slows both.
type Network struct {
	Graph *Graph
	Cong  *Congestion
}

// NewNetwork wraps a graph with fresh (free-flow) congestion state.
func NewNetwork(g *Graph) *Network {
	return &Network{Graph: g, Cong: NewCongestion(g)}
}
