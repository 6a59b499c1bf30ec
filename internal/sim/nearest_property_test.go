package sim

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/road"
)

// TestNearestIndexesMatchBruteForce drives the three indexes that share
// geo.Cells' ring walk — the live SlotGrid, the snapshot's productCells
// and the road graph's node grid — with generated point sets and checks
// every answer against a full scan ordered by (distance, slot). Points
// sit on a coarse lattice (so equal distances and coincident points are
// common) and may lie outside the bounds; queries include lattice points,
// far-outside points, and k larger than the point count.
func TestNearestIndexesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(20150429))
	for trial := 0; trial < 60; trial++ {
		w, h := 600+rng.Float64()*2400, 600+rng.Float64()*2400
		lo := geo.Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
		bounds := geo.NewRect(lo, geo.Point{X: lo.X + w, Y: lo.Y + h})
		cell := []float64{40, 100, 250, 900}[rng.Intn(4)]
		lattice := func(overshoot float64) geo.Point {
			x := lo.X - overshoot + rng.Float64()*(w+2*overshoot)
			y := lo.Y - overshoot + rng.Float64()*(h+2*overshoot)
			return geo.Point{X: float64(int(x/50)) * 50, Y: float64(int(y/50)) * 50}
		}

		// One generated car set, indexed twice.
		n := rng.Intn(80)
		if trial%10 == 0 {
			n = 0
		}
		cars := make([]geo.SlotPoint, n)
		for i, s := range rng.Perm(200)[:n] {
			cars[i] = geo.SlotPoint{Slot: int32(s), Pos: lattice(150)}
		}
		live := geo.NewSlotGrid(bounds, cell, 1)
		frozen := productCells{cells: make([][]geo.SlotPoint, live.NumCells())}
		for i := range cars {
			live.Insert(0, cars[i].Slot, cars[i].Pos)
			c := live.CellIndex(cars[i].Pos)
			frozen.cells[c] = append(frozen.cells[c], cars[i])
		}

		// And one generated street graph over the same rectangle.
		g := road.Generate(road.GenConfig{
			Region: bounds, Block: []float64{60, 120, 200}[rng.Intn(3)], Seed: rng.Uint64(),
		})

		for q := 0; q < 25; q++ {
			var from geo.Point
			switch q % 3 {
			case 0:
				from = lattice(0)
			case 1:
				from = lattice(3000)
			default:
				from = geo.Point{X: lo.X + rng.Float64()*w, Y: lo.Y + rng.Float64()*h}
			}
			for _, k := range []int{1, 3, core.MaxVisibleCars, n + 5} {
				want := make([]geo.SlotNeighbor, n)
				for i, c := range cars {
					want[i] = geo.SlotNeighbor{Slot: c.Slot, Pos: c.Pos, Dist: geo.Dist(from, c.Pos)}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].Dist != want[j].Dist {
						return want[i].Dist < want[j].Dist
					}
					return want[i].Slot < want[j].Slot
				})
				if len(want) > k {
					want = want[:k]
				}
				got := live.KNearest(0, from, k)
				snap := frozen.kNearest(&live.Cells, from, k, nil)
				if len(got) != len(want) || len(snap) != len(want) {
					t.Fatalf("trial %d from %v k=%d: SlotGrid %d, snapshot %d results, want %d",
						trial, from, k, len(got), len(snap), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d from %v k=%d idx %d: SlotGrid %+v, want %+v", trial, from, k, i, got[i], want[i])
					}
					if snap[i].car.Slot != want[i].Slot || snap[i].dist != want[i].Dist {
						t.Fatalf("trial %d from %v k=%d idx %d: snapshot slot %d dist %v, want %+v",
							trial, from, k, i, snap[i].car.Slot, snap[i].dist, want[i])
					}
				}
			}

			best, bestD := int32(-1), 0.0
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				if d := geo.Dist(from, g.NodePos(v)); best < 0 || d < bestD {
					best, bestD = v, d
				}
			}
			if got := g.NearestNode(from); got != best {
				t.Fatalf("trial %d: NearestNode(%v) = %d (%.3f m), full scan says %d (%.3f m)",
					trial, from, got, geo.Dist(from, g.NodePos(got)), best, bestD)
			}
		}
	}

	// Exact ties on one axis. A street grid over 12×9 lattice squares of
	// a power-of-two edge, with a block a little shorter than the edge,
	// puts its perimeter nodes on the lattice and its node cells (two
	// blocks) off it. The midpoint of two neighbouring perimeter nodes is
	// then exactly half an edge from both, along one axis only, and some
	// midpoints share a cell with the higher-numbered node. The
	// lower-numbered node must win, also when the walk met the other
	// first and already holds half an edge as its best distance.
	for _, edge := range []float64{64, 128} {
		for _, block := range []float64{edge * 60 / 64, edge * 62 / 64} {
			lo := geo.Point{X: -16 * edge, Y: 4 * edge}
			region := geo.NewRect(lo, geo.Point{X: lo.X + 12*edge, Y: lo.Y + 9*edge})
			g := road.Generate(road.GenConfig{Region: region, Block: block, Seed: uint64(block)})
			onRim := func(p geo.Point) bool {
				return p.X == region.Min.X || p.X == region.Max.X || p.Y == region.Min.Y || p.Y == region.Max.Y
			}
			for a := int32(0); int(a) < g.NumNodes(); a++ {
				for b := a + 1; int(b) < g.NumNodes(); b++ {
					pa, pb := g.NodePos(a), g.NodePos(b)
					if !onRim(pa) || !onRim(pb) || (pa.X != pb.X && pa.Y != pb.Y) || geo.Dist(pa, pb) != edge {
						continue
					}
					mid := geo.Point{X: (pa.X + pb.X) / 2, Y: (pa.Y + pb.Y) / 2}
					if got := g.NearestNode(mid); got != a {
						t.Fatalf("block %g: NearestNode(%v) = %d, want %d: both are %g m away, the lower index wins",
							block, mid, got, a, edge/2)
					}
				}
			}
		}
	}
}

// TestSnapshotEWTZeroAlloc pins the lock-free queries on a euclidean
// world: the exact-size neighbour buffers and the scan closure handed to
// the ring walk stay on the stack, so EWT allocates nothing and
// NearestCars only its result — one block holds the views and the paths
// they copy out of the cars' entries.
func TestSnapshotEWTZeroAlloc(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 22, Workers: 1})
	w.Run(600)
	snap := w.Snapshot()
	if idleCars(&snap.products[core.UberX]) == 0 {
		t.Fatal("no idle UberX to query")
	}
	pos := geo.Point{X: 120, Y: -340}
	if avg := testing.AllocsPerRun(200, func() { _ = snap.EWT(core.UberX, pos) }); avg != 0 {
		t.Fatalf("Snapshot.EWT allocates %.1f times per call, want 0", avg)
	}
	near := func() { _ = snap.NearestCars(core.UberX, pos, core.MaxVisibleCars) }
	if avg := testing.AllocsPerRun(200, near); avg != 1 {
		t.Fatalf("Snapshot.NearestCars allocates %.1f times per call, want 1 (the result)", avg)
	}
}
