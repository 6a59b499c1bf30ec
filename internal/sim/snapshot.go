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
//   - a per-product k-nearest index over the idle cars' slots and plane
//     positions, copied from the live grid's cells and searched by the same
//     ring walk, so it answers the same queries in the same order;
//   - the fleet's session and path-ring columns, copied whole and read by
//     slot, projected to lat/lng, only for the few cars an answer returns;
//   - the rasterized area index and area polygons;
//   - the simulation clock and the service region.
//
// Every snapshot is built whole from the live idle layers (see World.Snapshot)
// and shares nothing with the next one. A snapshot no query will read again
// may be handed back with World.Recycle, and a later build overwrites its
// buffers. Every answer copies its paths out, so no reader holds an entry
// past the call. The struct itself is never reused, so Now, Areas, Region
// and Proj stay valid. All methods are safe for unlimited concurrent use
// until Recycle.
type Snapshot struct {
	// Now is the simulation time the snapshot was taken at.
	Now int64
	// Areas are the surge-area polygons (shared, immutable).
	Areas []geo.Polygon
	// Region is the serviced rectangle (requests outside it are rejected).
	Region geo.Rect
	// Proj converts between wire lat/lng and plane coordinates.
	Proj *geo.Projection

	areaIdx *geo.AreaIndex
	// grid is the cell geometry of every product's index: the live grid's.
	grid     *geo.Cells
	products [core.NumVehicleTypes]productCells
	// cars is the fleet's carColumns up to its high slot at Now.
	cars carColumns

	// trip is the world's movement model frozen at Now (see mover.freeze),
	// and factors the congestion factor table it reads (nil on the plane).
	trip    tripFunc
	factors []float64
}

// productCells is a read-only uniform grid over one product's idle cars:
// cells[c] copies the live grid's cell c (cells is nil if none is idle). The
// non-empty cells are cap-limited windows of the slab segments — slab, then
// each of more — written once by the build and immutable once published; no
// window straddles two segments.
type productCells struct {
	cells [][]geo.SlotPoint
	slab  []geo.SlotPoint
	more  [][]geo.SlotPoint
}

// AreaOf returns the surge area containing the plane point, or -1;
// identical to the brute-force AreaOf scan.
func (s *Snapshot) AreaOf(p geo.Point) int { return s.areaIdx.Find(p) }

// EWT returns the estimated wait time in seconds for a product at a
// location, computed exactly as World.EWT does: dispatch overhead plus
// the movement model's drive time of the nearest idle car, capped at the
// paper's observed 43-minute maximum.
func (s *Snapshot) EWT(vt core.VehicleType, pos geo.Point) float64 {
	var buf [1]snapNeighbor
	near := s.products[int(vt)].kNearest(s.grid, pos, 1, buf[:0])
	if len(near) == 0 {
		return maxEWTSeconds
	}
	_, sec := s.trip(near[0].car.Pos, pos)
	return ewtOf(sec)
}

// NearestCars returns up to k idle cars of the product nearest to pos as
// wire-format views, ordered by ascending distance with ties broken by
// slot — the same cars in the same order World.NearestCars returns. The
// views and their paths are fresh copies, the caller's for good; up to
// core.MaxVisibleCars of them share one allocation.
func (s *Snapshot) NearestCars(vt core.VehicleType, pos geo.Point, k int) []core.CarView {
	var buf [core.MaxVisibleCars]NearCar
	near := s.AppendNearest(buf[:0], vt, pos, k)
	var out []core.CarView
	var pts []geo.LatLng
	if len(near) <= core.MaxVisibleCars {
		one := new(struct {
			cars [core.MaxVisibleCars]core.CarView
			pts  [core.MaxVisibleCars * pathLen]geo.LatLng
		})
		out, pts = one.cars[:0:len(near)], one.pts[:0]
	} else {
		out, pts = make([]core.CarView, 0, len(near)), make([]geo.LatLng, 0, len(near)*pathLen)
	}
	for i := range near {
		c := &near[i]
		lo := len(pts)
		pts = append(pts, c.Path()...)
		out = append(out, core.CarView{ID: c.ID, Pos: c.Pos, Path: pts[lo:len(pts):len(pts)]})
	}
	return out
}

// NearCar is one car a nearest-car query found: its session ID, its wire
// position, and its path vector.
type NearCar struct {
	ID   string
	Pos  geo.LatLng
	path [pathLen]geo.LatLng
	n    uint8
}

// Path returns the car's path vector, oldest first, at most pathLen points.
// It aliases c itself: it stays valid while c does, and a copy of c has its
// own.
func (c *NearCar) Path() []geo.LatLng { return c.path[:c.n:c.n] }

// AppendNearest appends to dst up to k idle cars of the product nearest to
// pos, in NearestCars' order, and returns the extended slice. It allocates
// nothing when dst has room for k cars and k <= core.MaxVisibleCars.
func (s *Snapshot) AppendNearest(dst []NearCar, vt core.VehicleType, pos geo.Point, k int) []NearCar {
	var buf [core.MaxVisibleCars]snapNeighbor // exact for every ping; a larger k grows it
	for _, nb := range s.products[int(vt)].kNearest(s.grid, pos, k, buf[:0]) {
		var pts [pathLen]geo.Point
		path := s.cars.pathPoints(nb.car.Slot, pts[:0])
		dst = append(dst, NearCar{ID: s.cars.session[nb.car.Slot], Pos: s.Proj.ToLatLng(nb.car.Pos), n: uint8(len(path))})
		c := &dst[len(dst)-1]
		for i, p := range path {
			c.path[i] = s.Proj.ToLatLng(p)
		}
	}
	return dst
}

// gridCellMeters is the uniform cell edge shared by the live geo.SlotGrid
// and the snapshot index.
const gridCellMeters = 250.0

// snapNeighbor is one k-nearest result.
type snapNeighbor struct {
	car  *geo.SlotPoint
	dist float64
}

// kNearest returns up to k cars nearest from into buf, ordered by
// (distance, slot): the walk is geo's over grid, the scan a bounded sorted
// top-k.
func (pc *productCells) kNearest(grid *geo.Cells, from geo.Point, k int, buf []snapNeighbor) []snapNeighbor {
	buf = buf[:0]
	if k <= 0 || pc.cells == nil {
		return buf
	}
	kth := math.Inf(1)
	grid.WalkRings(from, func(c int) float64 {
		cell := pc.cells[c]
		for i := range cell {
			car := &cell[i]
			if geo.AxisBeyond(from, car.Pos, kth) {
				continue
			}
			buf = insertSnapNeighbor(buf, k, snapNeighbor{car: car, dist: geo.Dist(from, car.Pos)})
			if len(buf) == k {
				kth = buf[k-1].dist
			}
		}
		return kth
	})
	return buf
}

// insertSnapNeighbor inserts nb into buf, kept sorted by (dist, slot) and
// capped at k entries.
func insertSnapNeighbor(buf []snapNeighbor, k int, nb snapNeighbor) []snapNeighbor {
	if len(buf) == k {
		last := buf[k-1]
		if nb.dist > last.dist || (nb.dist == last.dist && nb.car.Slot >= last.car.Slot) {
			return buf
		}
		buf = buf[:k-1]
	}
	i := len(buf)
	buf = append(buf, nb)
	for i > 0 {
		p := buf[i-1]
		if p.dist < nb.dist || (p.dist == nb.dist && p.car.Slot < nb.car.Slot) {
			break
		}
		buf[i] = p
		i--
	}
	buf[i] = nb
	return buf
}

// snapBuilder is what the world keeps between snapshot builds: the buffers
// of epochs handed back by World.Recycle, until a build takes them, and the
// build counters. No cell entry is remembered — every idle car cruises every
// tick, so every build copies every visible car and no cell entry of one
// epoch is valid in the next (measured: DESIGN.md "Snapshot build"); only
// the memory it was written to is. The sim phases owe the builder nothing:
// it reads the live idle layers and the fleet's columns, and a world that
// never snapshots pays nothing.
type snapBuilder struct {
	// spare, spareCars and spareFactors hold what Recycle handed back.
	spare         [core.NumVehicleTypes]productCells
	spareCars     carColumns
	spareFactors  []float64
	mCars, mCells *obs.Counter
}

// Snapshot freezes the world's queryable state. It must be called from
// the same goroutine that steps the world (or under the caller's step
// lock); the returned snapshot itself is immutable until it is handed to
// Recycle.
//
// The build is bulk copies: the fleet's carColumns, one copy each, and one
// pass over the live idle layers, which hold exactly the visible cars, by
// cell, at their committed positions. Per product each non-empty cell is
// copied into a cap-limited window of one of a short list of slab segments.
// A cell table handed back is overwritten whole, and the segments handed
// back are filled in order; a cell that does not fit in what is left of one
// starts the next. Only when they run out does the build make one more
// segment, for the entries left plus a sixteenth of the product's count, so
// a growing fleet pays for its growth and not for the entries it already had.
//
// Entry order inside a cell is the live grid's and is unobservable: every
// answer is ordered by (dist, slot) in insertSnapNeighbor.
func (w *World) Snapshot() *Snapshot {
	b := &w.snap
	snap := &Snapshot{
		Now:     w.now,
		Areas:   w.areas,
		Region:  w.profile.Region,
		Proj:    w.proj,
		areaIdx: w.areaIndex,
		grid:    &w.grid.Cells,
		cars:    w.fleet.freeze(b.spareCars),
	}
	snap.trip, snap.factors = w.mv.freeze(b.spareFactors)
	b.spareCars, b.spareFactors = carColumns{}, nil
	var cars, cells int64
	g := w.grid
	for vt := range snap.products {
		pc := &snap.products[vt]
		count := g.Len(vt)
		if count == 0 {
			continue // kNearest never reads the cells of an empty product
		}
		spare := b.spare[vt]
		b.spare[vt] = productCells{}
		pc.cells, pc.slab, pc.more = spare.cells, spare.slab, spare.more
		if len(pc.cells) != g.NumCells() {
			pc.cells = make([][]geo.SlotPoint, g.NumCells())
		}
		if pc.slab == nil {
			pc.slab = make([]geo.SlotPoint, count)
		}
		seg, next, written := pc.slab[:0], 0, 0
		for c := range pc.cells {
			live := g.Cell(vt, c)
			if len(live) == 0 {
				pc.cells[c] = nil
				continue
			}
			for cap(seg)-len(seg) < len(live) {
				if next == len(pc.more) {
					pc.more = append(pc.more, make([]geo.SlotPoint, count-written+count/16))
				}
				seg = pc.more[next][:0]
				next++
			}
			lo := len(seg)
			seg = append(seg, live...)
			pc.cells[c] = seg[lo:len(seg):len(seg)]
			written += len(live)
			cells++
		}
		cars += int64(written)
	}
	b.mCars.Add(cars)
	b.mCells.Add(cells)
	return snap
}

// Recycle hands s's cell tables, slab segments, frozen columns and factor
// table to the next build, which overwrites them. The caller guarantees that
// no query is reading s and none will: afterwards s answers as if no car
// were idle. Its Now, Areas, Region and Proj stay valid; the paths it served
// were copies. Like Snapshot, it must be called from the goroutine that
// steps the world.
func (w *World) Recycle(s *Snapshot) {
	b := &w.snap
	for vt := range s.products {
		pc := &s.products[vt]
		if pc.slab != nil {
			b.spare[vt] = productCells{cells: pc.cells, slab: pc.slab, more: pc.more}
		}
		pc.cells, pc.slab, pc.more = nil, nil, nil
	}
	b.spareCars, s.cars = s.cars, carColumns{}
	if s.factors != nil {
		b.spareFactors, s.factors = s.factors, nil
	}
}
