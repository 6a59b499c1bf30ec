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
// Every snapshot is built whole from the live idle grids (see World.Snapshot);
// consecutive snapshots share only the append-only per-car path histories
// they window into (carHist). A snapshot no query will read again may be
// handed back with World.Recycle, and a later build overwrites its slabs,
// cell tables and frozen factor table, and reuses a history chunk once every
// epoch that windowed into it has been recycled. Every answer copies its
// paths out, so no reader holds a chunk past the call. The struct itself is
// never reused, so Now, Areas, Region and Proj stay valid. All methods are
// safe for unlimited concurrent use until Recycle.
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

	// trip is the world's movement model frozen at Now (see mover.freeze),
	// and factors the congestion factor table it reads (nil on the plane).
	trip    tripFunc
	factors []float64
	// seq is the build that made the snapshot (snapBuilder.seq).
	seq uint32
}

// histPoints is a history chunk's capacity: 12 points make carHist exactly
// the 224 B size class, and a chunk lasts histPoints-pathLen+1 builds.
const histPoints = 12

// carHist is one car's projected path history, oldest first. It is
// append-only: the builder writes only past every published snapCar.end,
// so a published window is never written again, and starts a fresh chunk
// when this one is full (every histPoints-pathLen+1 builds). A chunk left
// behind may be reused for another car (see World.Recycle).
type carHist struct {
	id  string
	pts [histPoints]geo.LatLng
	// born is the build that started the chunk.
	born uint32
	// next links the builder's retired and free lists; no reader reads it.
	next *carHist
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
// the live grids' own. The non-empty cells are cap-limited windows of slab,
// written once by the build and immutable once published.
type productCells struct {
	geo.Cells
	count int
	cells [][]snapCar
	slab  []snapCar
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
	for _, c := range near {
		lo := len(pts)
		pts = append(pts, c.Path()...)
		out = append(out, core.CarView{ID: c.ID, Pos: c.Pos, Path: pts[lo:len(pts):len(pts)]})
	}
	return out
}

// NearCar is one car a nearest-car query found: its session ID, its wire
// position, and the window of its history chunk that is its path vector.
type NearCar struct {
	ID  string
	Pos geo.LatLng
	// hist[end-n:end] is the path window.
	hist   *carHist
	end, n uint8
}

// Path returns the car's path vector, oldest first, at most pathLen points.
// It aliases the car's history chunk, which a later build may reuse once the
// snapshot is recycled: read or copy it only until World.Recycle is called
// on the snapshot.
func (c NearCar) Path() []geo.LatLng {
	// Cap-limited to its window: later appends to the chunk are out of reach.
	return c.hist.pts[int(c.end)-int(c.n) : c.end : c.end]
}

// AppendNearest appends to dst up to k idle cars of the product nearest to
// pos, in NearestCars' order, and returns the extended slice. It allocates
// nothing when dst has room for k cars and k <= core.MaxVisibleCars.
func (s *Snapshot) AppendNearest(dst []NearCar, vt core.VehicleType, pos geo.Point, k int) []NearCar {
	var buf [core.MaxVisibleCars]snapNeighbor // exact for every ping; a larger k grows it
	for _, nb := range s.products[int(vt)].kNearest(pos, k, buf[:0]) {
		h, end := nb.car.hist, nb.car.end
		dst = append(dst, NearCar{ID: h.id, Pos: h.pts[end-1], hist: h, end: end, n: nb.car.n})
	}
	return dst
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

// snapBuilder is what the world remembers between snapshot builds: each
// visible slot's path history (see carHist) and the build that last encoded
// it, and the buffers and history chunks of epochs handed back by
// World.Recycle. No cell entry is remembered — every idle car cruises every
// tick, so every build re-encodes every visible car and no cell entry of one
// epoch is valid in the next (measured: DESIGN.md "Snapshot build"); only
// the memory it was written to is. The sim phases owe the builder nothing:
// it reads the live idle grids and the fleet's pathGen, and a world that
// never snapshots pays nothing.
type snapBuilder struct {
	slots []snapSlot
	// spare holds recycled cell tables and slabs per product, and
	// spareFactors a recycled factor table, until a build takes them.
	spare        [core.NumVehicleTypes]productCells
	spareFactors []float64
	// seq numbers the builds, from 1.
	seq uint32
	// retired lists the chunks build seq renewed away from their slots, until
	// a Recycle moves the reusable ones to free or the next build drops it;
	// nfree is the length of free.
	retired, free *carHist
	nfree         int
	// recycled is the last epoch Recycle took in order; every epoch in
	// (leak, recycled] went through Recycle, and those up to leak may not.
	recycled, leak uint32
	// renewals counts the history chunks this build started and reused those
	// of them taken from free; the counters are World.Instrument's, bumped
	// once per build.
	renewals, reused                  int64
	mCars, mRenewals, mReused, mCells *obs.Counter
	mFree                             *obs.Gauge
}

// snapSlot is the builder's memory of one fleet slot: its history chunk, the
// points written, their fleet.pathGen and the build that wrote them. A chunk
// is extended only for a slot the immediately preceding build encoded, so a
// car that was invisible to any build in between starts a fresh one.
type snapSlot struct {
	hist *carHist
	gen  uint32
	seen uint32
	end  uint8
}

// Snapshot freezes the world's queryable state. It must be called from
// the same goroutine that steps the world (or under the caller's step
// lock); the returned snapshot itself is immutable until it is recycled.
//
// The build is one pass over the live idle grids, which hold exactly the
// visible cars, by cell, at their committed positions: per product one cell
// table and one slab of entries, each non-empty cell a cap-limited window of
// the slab. Cost is proportional to the idle fleet. With nothing recycled
// both are made exact-size; a recycled table is overwritten whole, and a
// recycled slab too small for the product regrows with a sixteenth of
// headroom, so two epochs recycled in turn settle on two buffers.
//
// Entry order inside a cell is the live grid's and is unobservable: every
// answer is ordered by (dist, slot) in insertSnapNeighbor. The pass may
// therefore be sharded in any deterministic order.
func (w *World) Snapshot() *Snapshot {
	b := &w.snap
	b.seq++
	b.renewals, b.reused = 0, 0
	b.drainRetired(false) // no Recycle claimed the last build's
	for len(b.slots) < w.fleet.high {
		b.slots = append(b.slots, snapSlot{})
	}
	snap := &Snapshot{
		Now:     w.now,
		Areas:   w.areas,
		Region:  w.profile.Region,
		Proj:    w.proj,
		areaIdx: w.areaIndex,
		seq:     b.seq,
	}
	snap.trip, snap.factors = w.mv.freeze(b.spareFactors)
	b.spareFactors = nil
	var cars, cells int64
	for vt, g := range w.grids {
		pc := &snap.products[vt]
		pc.Cells = g.Cells
		pc.count = g.Len()
		if pc.count == 0 {
			continue // kNearest never reads the cells of an empty product
		}
		spare := b.spare[vt]
		b.spare[vt] = productCells{}
		pc.cells = spare.cells
		if len(pc.cells) != g.NumCells() {
			pc.cells = make([][]snapCar, g.NumCells())
		}
		slab := spare.slab[:0]
		if cap(slab) < pc.count {
			n := pc.count
			if spare.slab != nil {
				n += n / 16
			}
			slab = make([]snapCar, 0, n)
		}
		for c := range pc.cells {
			live := g.Cell(c)
			if len(live) == 0 {
				pc.cells[c] = nil
				continue
			}
			lo := len(slab)
			for _, sp := range live {
				slab = append(slab, w.encodeCar(sp.Slot))
			}
			pc.cells[c] = slab[lo:len(slab):len(slab)]
			cells++
		}
		// A recycled slab's tail would keep retired history chunks alive.
		clear(slab[len(slab):cap(slab)])
		pc.slab = slab
		cars += int64(len(slab))
	}
	b.mCars.Add(cars)
	b.mRenewals.Add(b.renewals)
	b.mReused.Add(b.reused)
	b.mCells.Add(cells)
	b.mFree.Set(float64(b.nfree))
	return snap
}

// Recycle hands s's cell tables, slabs and frozen factor table to the next
// build, which overwrites them. The caller guarantees that no query is
// reading s and none will: afterwards s answers as if no car were idle. Its
// Now, Areas, Region and Proj stay valid; the paths it served were copies.
//
// Recycle also hands back history chunks. Epochs are expected in build
// order; one that skips some marks the skipped ones as leaked (pinned, or
// built by a caller that does not recycle), for good. When s is recycled
// and the latest build is at most s's next, every epoch that windows into
// a chunk that build renewed lies between the chunk's birth and s. So a
// chunk born after the last leaked epoch has no reader left, and the next
// builds reuse it. An out-of-order or repeated Recycle only hands back
// buffers. Like Snapshot, it must be called from the goroutine that steps
// the world.
func (w *World) Recycle(s *Snapshot) {
	b := &w.snap
	for vt := range s.products {
		pc := &s.products[vt]
		if pc.slab != nil {
			b.spare[vt] = productCells{cells: pc.cells, slab: pc.slab}
		}
		pc.count, pc.cells, pc.slab = 0, nil, nil
	}
	if s.factors != nil {
		b.spareFactors, s.factors = s.factors, nil
	}
	if s.seq <= b.recycled {
		return
	}
	if s.seq != b.recycled+1 {
		b.leak = s.seq - 1
	}
	b.recycled = s.seq
	if b.seq <= s.seq+1 {
		b.drainRetired(true)
	}
}

// drainRetired empties the retired list. With reusable set it moves to free
// the chunks born after the last leaked epoch; every other chunk is
// unlinked, for the GC to take once no epoch holds it.
func (b *snapBuilder) drainRetired(reusable bool) {
	for h := b.retired; h != nil; {
		next := h.next
		h.next = nil
		if reusable && h.born > b.leak {
			h.next, b.free = b.free, h
			b.nfree++
		}
		h = next
	}
	b.retired = nil
}

// newHist returns a history chunk for a car of session id, born at this
// build: a reusable one if Recycle left any, else a fresh one.
func (b *snapBuilder) newHist(id string) *carHist {
	h := b.free
	if h == nil {
		return &carHist{id: id, born: b.seq}
	}
	b.free, h.next = h.next, nil
	b.nfree--
	h.id, h.born = id, b.seq
	b.reused++
	return h
}

// encodeCar returns slot s's cell entry for this build. A car the preceding
// build encoded keeps its window if its ring took no write since (parked, or
// a second build at one instant) and gains one projected point on its chunk
// if the ring took exactly one. A full chunk is renewed from the ring; so is
// anything else (newly visible, a new session in a recycled slot, a skipped
// build), at an offset staggered by slot so that the fleet's renewals spread
// over builds. The newest point is always the car's position: record wrote
// it last.
func (w *World) encodeCar(s int32) snapCar {
	f, b := &w.fleet, &w.snap
	sl := &b.slots[s]
	n := int(f.pathN[s])
	stayed := sl.hist != nil && sl.seen == b.seq-1
	sl.seen = b.seq
	if !stayed || f.pathGen[s] != sl.gen {
		one := stayed && f.pathGen[s] == sl.gen+1
		if !one || int(sl.end) == len(sl.hist.pts) {
			if sl.hist != nil {
				sl.hist.next, b.retired = b.retired, sl.hist
			}
			sl.hist, sl.end = b.newHist(f.session[s]), 0
			if !one {
				sl.end = uint8(s % (histPoints - pathLen + 1))
			}
			var ring [pathLen]geo.Point
			for _, p := range f.pathPoints(s, ring[:0])[:n-1] {
				sl.hist.pts[sl.end] = w.proj.ToLatLng(p)
				sl.end++
			}
			b.renewals++
		}
		sl.hist.pts[sl.end] = w.proj.ToLatLng(f.pos[s])
		sl.end++
		sl.gen = f.pathGen[s]
	}
	return snapCar{pos: f.pos[s], hist: sl.hist, slot: s, end: sl.end, n: uint8(n)}
}
