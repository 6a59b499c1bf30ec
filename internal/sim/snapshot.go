package sim

import (
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// Snapshot is an immutable view of the world at the end of one tick,
// built by Step's caller and published to the query path. Queries served
// from a snapshot (pingClient, estimates) never touch the live world, so
// they run lock-free and at most one tick stale — the same staleness the
// paper already measures, since surge data is interval-quantized anyway.
//
// A snapshot freezes exactly what the read endpoints consume:
//
//   - per-product idle-car views with the wire-format fields (session ID,
//     lat/lng position, projected path) projected once per tick instead
//     of once per ping;
//   - a per-product k-nearest index over those cars, laid out on the
//     live grids' geo.Cells and searched by the same ring walk, so it
//     answers the same queries in the same order;
//   - the rasterized area index and area polygons;
//   - the simulation clock and the service region.
//
// Snapshots are built incrementally (see snapBuilder below): consecutive
// snapshots share every grid cell no marked car left or entered, and window
// into the same append-only per-car path histories (carHist). All methods
// are safe for unlimited concurrent use.
type Snapshot struct {
	// Now is the simulation time the snapshot was taken at.
	Now int64
	// Areas are the surge-area polygons (shared, immutable).
	Areas []geo.Polygon
	// Region is the serviced rectangle (requests outside it are rejected).
	Region geo.Rect
	// Proj converts between wire lat/lng and plane coordinates.
	Proj *geo.Projection

	areaIdx  *geo.AreaIndex
	products [core.NumVehicleTypes]productCells

	// trip is the world's movement model frozen at Now (see mover.freeze).
	trip tripFunc
}

// carHist is one car's projected path history, oldest first. It is
// append-only: the builder writes only past every published snapCar.end,
// so a published window is never written again, and starts a fresh chunk
// when this one is full (176 B, a size class; every pathLen+1 builds).
type carHist struct {
	id  string
	pts [2 * pathLen]geo.LatLng
}

// snapCar is one idle car frozen into a snapshot: the plane position and
// slot the k-nearest search orders by, plus the window pts[end-n:end] of
// its history chunk that the wire view is sliced from at read time.
type snapCar struct {
	pos    geo.Point
	hist   *carHist
	slot   int32
	end, n uint8
}

// productCells is a read-only uniform grid over one product's idle cars:
// cells[c] lists the cars in cell c of the embedded geometry, which is
// the live grids' own. Cell slices are immutable once published — the
// incremental builder copies a cell before changing it — so consecutive
// snapshots share the cells churn didn't touch.
type productCells struct {
	geo.Cells
	count int
	cells [][]snapCar
}

// AreaOf returns the surge area containing the plane point, or -1;
// identical to the brute-force AreaOf scan.
func (s *Snapshot) AreaOf(p geo.Point) int { return s.areaIdx.Find(p) }

// IdleCars returns the number of visible (idle) cars of the product.
func (s *Snapshot) IdleCars(vt core.VehicleType) int {
	return s.products[int(vt)].count
}

// EWT returns the estimated wait time in seconds for a product at a
// location, computed exactly as World.EWT does: dispatch overhead plus
// the movement model's drive time of the nearest idle car, capped at the
// paper's observed 43-minute maximum.
func (s *Snapshot) EWT(vt core.VehicleType, pos geo.Point) float64 {
	var buf [1]snapNeighbor
	near := s.products[int(vt)].kNearest(pos, 1, buf[:0])
	if len(near) == 0 {
		return maxEWTSeconds
	}
	_, sec := s.trip(near[0].car.pos, pos)
	return ewtOf(sec)
}

// NearestCars returns up to k idle cars of the product nearest to pos as
// wire-format views, ordered by ascending distance with ties broken by
// slot — the same cars in the same order World.NearestCars returns. The
// returned slice is fresh; the Path slices are shared with the cars'
// history chunks and must be treated as read-only.
func (s *Snapshot) NearestCars(vt core.VehicleType, pos geo.Point, k int) []core.CarView {
	var buf [core.MaxVisibleCars]snapNeighbor // exact for every ping; a larger k grows it
	near := s.products[int(vt)].kNearest(pos, k, buf[:0])
	out := make([]core.CarView, 0, len(near))
	for _, nb := range near {
		// Cap-limited to its window: later appends to the chunk are out of reach.
		h, end := nb.car.hist, int(nb.car.end)
		out = append(out, core.CarView{ID: h.id, Pos: h.pts[end-1], Path: h.pts[end-int(nb.car.n) : end : end]})
	}
	return out
}

// gridCellMeters is the uniform cell edge shared by the live geo.SlotGrid
// and the snapshot index.
const gridCellMeters = 250.0

// snapNeighbor is one k-nearest result.
type snapNeighbor struct {
	car  *snapCar
	dist float64
}

// kNearest returns up to k cars nearest from into buf, ordered by
// (distance, slot): the walk is geo's, the scan a bounded sorted top-k.
func (pc *productCells) kNearest(from geo.Point, k int, buf []snapNeighbor) []snapNeighbor {
	buf = buf[:0]
	if k <= 0 || pc.count == 0 {
		return buf
	}
	pc.WalkRings(from, func(c int) float64 {
		cell := pc.cells[c]
		for i := range cell {
			car := &cell[i]
			buf = insertSnapNeighbor(buf, k, snapNeighbor{car: car, dist: geo.Dist(from, car.pos)})
		}
		if len(buf) < k {
			return math.Inf(1)
		}
		return buf[k-1].dist
	})
	return buf
}

// insertSnapNeighbor inserts nb into buf, kept sorted by (dist, slot) and
// capped at k entries.
func insertSnapNeighbor(buf []snapNeighbor, k int, nb snapNeighbor) []snapNeighbor {
	if len(buf) == k {
		last := buf[k-1]
		if nb.dist > last.dist || (nb.dist == last.dist && nb.car.slot >= last.car.slot) {
			return buf
		}
		buf = buf[:k-1]
	}
	i := len(buf)
	buf = append(buf, nb)
	for i > 0 {
		p := buf[i-1]
		if p.dist < nb.dist || (p.dist == nb.dist && p.car.slot < nb.car.slot) {
			break
		}
		buf[i] = p
		i--
	}
	buf[i] = nb
	return buf
}

// touchedCell names one (product, cell) pair a build must re-materialize.
type touchedCell struct {
	cell int32
	vt   uint8
}

// snapBuilder is the world's incremental snapshot state. The sim phases
// mark slots whose snapshot-observable state changed (position, path
// ring, idle membership) via markChanged; the next Snapshot() call
// re-encodes only the marked cars and rebuilds only the grid cells they
// left or entered, reusing every other cell slice from the previous
// snapshot by structural sharing; a re-encode usually projects one new
// point onto the car's history chunk (see encodeCar).
//
// The builder stays dormant (and markChanged free) until the first
// Snapshot() call, so worlds that never snapshot — batch experiments,
// benchmarks — pay nothing.
type snapBuilder struct {
	inited bool
	// queued is the dirty-slot list, deduplicated by snapSlot.queued.
	queued []int32
	slots  []snapSlot
	// cells/counts are the last published per-product state; a build
	// clones a product's top-level slice before changing any entry.
	cells  [core.NumVehicleTypes][][]snapCar
	counts [core.NumVehicleTypes]int
	// Per-build scratch: touchStamp/touchIdx map (product, cell) to this
	// build's touched-list entry; seq distinguishes builds so the maps
	// never need clearing.
	touchStamp [core.NumVehicleTypes][]int32
	touchIdx   [core.NumVehicleTypes][]int32
	seq        int32
	touched    []touchedCell
	addLists   [][]int32
	last       *Snapshot
	// renewals counts this build's fresh history chunks; the counters are
	// World.Instrument's, bumped once per build.
	renewals                 int64
	mCars, mRenewals, mCells *obs.Counter
}

// snapSlot is the builder's memory of one fleet slot: its place in the last
// published snapshot (prod -1 means invisible: busy or offline) and, while
// visible, its history chunk, the points written and their fleet.pathGen.
type snapSlot struct {
	hist   *carHist
	cell   int32
	gen    uint32
	prod   int8
	end    uint8
	queued bool
}

// markChanged queues a slot for re-encoding in the next snapshot build.
// Serial-phase only (the parallel move shards queue into their shardOps
// and the commit loop forwards here).
func (w *World) markChanged(s int32) {
	b := &w.snap
	if !b.inited {
		return
	}
	for int32(len(b.slots)) <= s {
		b.slots = append(b.slots, snapSlot{prod: -1})
	}
	if !b.slots[s].queued {
		b.slots[s].queued = true
		b.queued = append(b.queued, s)
	}
}

// initSnapBuilder allocates the builder's geometry and queues the whole
// live fleet as the first delta.
func (w *World) initSnapBuilder() {
	b := &w.snap
	n := w.grids[0].NumCells()
	for vt := range b.cells {
		b.cells[vt] = make([][]snapCar, n)
		b.touchStamp[vt] = make([]int32, n)
		b.touchIdx[vt] = make([]int32, n)
	}
	b.inited = true
	f := &w.fleet
	for s := int32(0); int(s) < f.high; s++ {
		if f.live[s] {
			w.markChanged(s)
		}
	}
}

// touch registers a (product, cell) pair for rebuild and returns its
// add-list.
func (b *snapBuilder) touch(vt uint8, cell int32) int {
	if b.touchStamp[vt][cell] == b.seq {
		return int(b.touchIdx[vt][cell])
	}
	b.touchStamp[vt][cell] = b.seq
	idx := len(b.touched)
	b.touchIdx[vt][cell] = int32(idx)
	b.touched = append(b.touched, touchedCell{cell: cell, vt: vt})
	if len(b.addLists) <= idx {
		b.addLists = append(b.addLists, nil)
	}
	b.addLists[idx] = b.addLists[idx][:0]
	return idx
}

// Snapshot freezes the world's queryable state. It must be called from
// the same goroutine that steps the world (or under the caller's step
// lock); the returned snapshot itself is immutable.
//
// The build is incremental: cost is proportional to the tick's churn
// (cars that moved, changed visibility, or extended their path ring),
// not to the fleet size. With no churn since the last call, the previous
// snapshot is returned as-is.
func (w *World) Snapshot() *Snapshot {
	b := &w.snap
	if !b.inited {
		w.initSnapBuilder()
	}
	if len(b.queued) == 0 && b.last != nil && b.last.Now == w.now {
		return b.last
	}
	f := &w.fleet
	geom := productCells{Cells: w.grids[0].Cells}
	b.seq++
	b.touched = b.touched[:0]

	// Classify every dirty slot: where was it in the last snapshot, where
	// does it belong now. Touch the cells on both ends.
	var productTouched [core.NumVehicleTypes]bool
	for _, s := range b.queued {
		sl := &b.slots[s]
		oldP, oldC := sl.prod, sl.cell
		newP, newC := int8(-1), int32(-1)
		if f.live[s] && DriverState(f.state[s]) == StateIdle {
			newP = int8(f.typ[s])
			newC = int32(geom.CellIndex(f.pos[s]))
		}
		if oldP < 0 && newP < 0 {
			continue
		}
		if oldP >= 0 {
			b.touch(uint8(oldP), oldC)
			productTouched[oldP] = true
			b.counts[oldP]--
		}
		if newP >= 0 {
			idx := b.touch(uint8(newP), newC)
			b.addLists[idx] = append(b.addLists[idx], s)
			productTouched[newP] = true
			b.counts[newP]++
		} else {
			sl.hist = nil
		}
		sl.prod, sl.cell = newP, newC
	}

	// Clone the top-level cell table of every touched product so the
	// previously published snapshots stay immutable.
	for vt := range productTouched {
		if !productTouched[vt] {
			continue
		}
		clone := make([][]snapCar, len(b.cells[vt]))
		copy(clone, b.cells[vt])
		b.cells[vt] = clone
	}

	// Rebuild each touched cell: keep the still-valid frozen entries
	// (slots not queued), then append fresh encodings of the cell's
	// incoming cars.
	var cars int64
	b.renewals = 0
	for ti, tc := range b.touched {
		old := b.cells[tc.vt][tc.cell]
		adds := b.addLists[ti]
		n := len(adds)
		for i := range old {
			if !b.slots[old[i].slot].queued {
				n++
			}
		}
		var fresh []snapCar
		if n > 0 {
			fresh = make([]snapCar, 0, n)
			for i := range old {
				if !b.slots[old[i].slot].queued {
					fresh = append(fresh, old[i])
				}
			}
			for _, s := range adds {
				fresh = append(fresh, w.encodeCar(s))
			}
			cars += int64(len(adds))
		}
		b.cells[tc.vt][tc.cell] = fresh
	}
	b.mCars.Add(cars)
	b.mRenewals.Add(b.renewals)
	b.mCells.Add(int64(len(b.touched)))

	for _, s := range b.queued {
		b.slots[s].queued = false
	}
	b.queued = b.queued[:0]

	snap := &Snapshot{
		Now:     w.now,
		Areas:   w.areas,
		Region:  w.profile.Region,
		Proj:    w.proj,
		areaIdx: w.areaIndex,
		trip:    w.mv.freeze(),
	}
	for vt := range snap.products {
		pc := geom
		pc.count = b.counts[vt]
		pc.cells = b.cells[vt]
		snap.products[vt] = pc
	}
	b.last = snap
	return snap
}

// encodeCar returns slot s's cell entry for this build. A car that stayed
// visible and whose ring took exactly one write since its last encode gains
// one projected point on its chunk. A full chunk is renewed from the ring;
// so is anything else (newly visible, a new session in a recycled slot, a
// skipped build), at an offset staggered by slot so that the fleet's
// renewals spread over builds. The newest point is always the car's
// position: record wrote it last.
func (w *World) encodeCar(s int32) snapCar {
	f, sl := &w.fleet, &w.snap.slots[s]
	n := int(f.pathN[s])
	one := sl.hist != nil && f.pathGen[s] == sl.gen+1
	if !one || int(sl.end) == len(sl.hist.pts) {
		sl.hist, sl.end = &carHist{id: f.session[s]}, 0
		if !one {
			sl.end = uint8(s % (pathLen + 1))
		}
		var ring [pathLen]geo.Point
		for _, p := range f.pathPoints(s, ring[:0])[:n-1] {
			sl.hist.pts[sl.end] = w.proj.ToLatLng(p)
			sl.end++
		}
		w.snap.renewals++
	}
	sl.hist.pts[sl.end] = w.proj.ToLatLng(f.pos[s])
	sl.end++
	sl.gen = f.pathGen[s]
	return snapCar{pos: f.pos[s], hist: sl.hist, slot: s, end: sl.end, n: uint8(n)}
}
