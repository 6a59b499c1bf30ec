package geo

import "math"

// SlotGrid is a uniform-grid spatial index over moving points identified
// by small dense integer slots — the live "eight closest cars" index
// behind pingClient and dispatch. Cars churn constantly (every tick moves
// most of them), so membership resolves through two flat int32 arrays
// keyed by the caller's slot number: Move and Remove are
// pointer-chase-free O(1), and the per-tick update stream of a large
// fleet stays allocation-free once the cells reach their steady-state
// capacity.
//
// The embedded Cells supplies the geometry and the search order; SlotGrid
// adds only the per-cell point lists. Equal-distance results order by
// ascending slot.
type SlotGrid struct {
	Cells
	cells  [][]SlotPoint
	cellOf []int32 // slot -> cell index, -1 when absent
	idxOf  []int32 // slot -> position within its cell slice
	n      int
}

// SlotPoint pairs an indexed slot with its position; the unit of the
// batched mutation API.
type SlotPoint struct {
	Slot int32
	Pos  Point
}

// SlotNeighbor is a k-nearest query result.
type SlotNeighbor struct {
	Slot int32
	Pos  Point
	Dist float64
}

// NewSlotGrid creates an index covering bounds with square cells of the
// given size. Points outside bounds are clamped into the boundary cells,
// so the index tolerates cars that wander slightly outside the service
// region (as the paper's edge-filtering logic expects).
func NewSlotGrid(bounds Rect, cellSize float64) *SlotGrid {
	c := NewCells(bounds, cellSize)
	return &SlotGrid{Cells: c, cells: make([][]SlotPoint, c.NumCells())}
}

// Len returns the number of indexed points.
func (g *SlotGrid) Len() int { return g.n }

// grow extends the slot lookup arrays to cover slot.
func (g *SlotGrid) grow(slot int32) {
	for int32(len(g.cellOf)) <= slot {
		g.cellOf = append(g.cellOf, -1)
		g.idxOf = append(g.idxOf, -1)
	}
}

// Contains reports whether slot is indexed.
func (g *SlotGrid) Contains(slot int32) bool {
	return slot >= 0 && slot < int32(len(g.cellOf)) && g.cellOf[slot] >= 0
}

// Insert adds slot at p. Inserting an existing slot moves it.
func (g *SlotGrid) Insert(slot int32, p Point) {
	g.grow(slot)
	if g.cellOf[slot] >= 0 {
		g.Move(slot, p)
		return
	}
	ci := int32(g.CellIndex(p))
	g.cells[ci] = append(g.cells[ci], SlotPoint{Slot: slot, Pos: p})
	g.cellOf[slot] = ci
	g.idxOf[slot] = int32(len(g.cells[ci]) - 1)
	g.n++
}

// Remove deletes slot from the index. Removing an absent slot is a no-op.
func (g *SlotGrid) Remove(slot int32) {
	if !g.Contains(slot) {
		return
	}
	g.unlink(slot)
	g.cellOf[slot] = -1
	g.idxOf[slot] = -1
	g.n--
}

// unlink swap-removes an indexed slot from its cell's list.
func (g *SlotGrid) unlink(slot int32) {
	ci, idx := g.cellOf[slot], g.idxOf[slot]
	cell := g.cells[ci]
	last := int32(len(cell) - 1)
	if idx != last {
		moved := cell[last]
		cell[idx] = moved
		g.idxOf[moved.Slot] = idx
	}
	g.cells[ci] = cell[:last]
}

// Move updates slot's position, relocating it between cells only when
// needed. Moving an absent slot inserts it.
func (g *SlotGrid) Move(slot int32, p Point) {
	if !g.Contains(slot) {
		g.Insert(slot, p)
		return
	}
	ci := g.cellOf[slot]
	ni := int32(g.CellIndex(p))
	if ni == ci {
		g.cells[ci][g.idxOf[slot]].Pos = p
		return
	}
	g.unlink(slot)
	g.cells[ni] = append(g.cells[ni], SlotPoint{Slot: slot, Pos: p})
	g.cellOf[slot] = ni
	g.idxOf[slot] = int32(len(g.cells[ni]) - 1)
}

// MoveBatch applies Move for every entry in order; phase-parallel callers
// buffer updates per shard and commit them here so the grid sees one
// ordered serial write stream.
func (g *SlotGrid) MoveBatch(ups []SlotPoint) {
	for _, u := range ups {
		g.Move(u.Slot, u.Pos)
	}
}

// InsertBatch applies Insert for every entry in order.
func (g *SlotGrid) InsertBatch(ups []SlotPoint) {
	for _, u := range ups {
		g.Insert(u.Slot, u.Pos)
	}
}

// RemoveBatch applies Remove for every slot in order.
func (g *SlotGrid) RemoveBatch(slots []int32) {
	for _, s := range slots {
		g.Remove(s)
	}
}

// Position returns the stored position of slot.
func (g *SlotGrid) Position(slot int32) (Point, bool) {
	if !g.Contains(slot) {
		return Point{}, false
	}
	return g.cells[g.cellOf[slot]][g.idxOf[slot]].Pos, true
}

// KNearest returns up to k indexed points closest to from, sorted by
// ascending distance with ties broken by ascending slot. It allocates a
// fresh result slice; hot paths use KNearestInto with a reused buffer.
func (g *SlotGrid) KNearest(from Point, k int) []SlotNeighbor {
	return g.KNearestInto(from, k, nil)
}

// KNearestInto is KNearest writing into buf (reused, returned re-sliced).
// The search keeps a sorted bounded top-k while the ring walk expands, so
// it never materializes or sorts the full candidate set — with dense
// cells this is the difference between O(cells·k) and O(cands·log cands)
// per query. The result set and order are identical to a full
// collect-and-sort.
func (g *SlotGrid) KNearestInto(from Point, k int, buf []SlotNeighbor) []SlotNeighbor {
	buf = buf[:0]
	if k <= 0 || g.n == 0 {
		return buf
	}
	kth := math.Inf(1)
	g.WalkRings(from, func(cell int) float64 {
		for _, sp := range g.cells[cell] {
			if AxisBeyond(from, sp.Pos, kth) {
				continue
			}
			buf = insertNeighbor(buf, k, SlotNeighbor{Slot: sp.Slot, Pos: sp.Pos, Dist: Dist(from, sp.Pos)})
			if len(buf) == k {
				kth = buf[k-1].Dist
			}
		}
		return kth
	})
	return buf
}

// insertNeighbor inserts nb into buf, kept sorted by (Dist, Slot) and
// capped at k entries.
func insertNeighbor(buf []SlotNeighbor, k int, nb SlotNeighbor) []SlotNeighbor {
	if len(buf) == k {
		last := buf[k-1]
		if nb.Dist > last.Dist || (nb.Dist == last.Dist && nb.Slot >= last.Slot) {
			return buf
		}
		buf = buf[:k-1]
	}
	i := len(buf)
	buf = append(buf, nb)
	for i > 0 {
		p := buf[i-1]
		if p.Dist < nb.Dist || (p.Dist == nb.Dist && p.Slot < nb.Slot) {
			break
		}
		buf[i] = p
		i--
	}
	buf[i] = nb
	return buf
}

// FirstWithin returns the lowest slot within radius of from, or -1. This
// is the deterministic "first eligible in registration order" query the
// POOL join matcher uses.
func (g *SlotGrid) FirstWithin(from Point, radius float64) int32 {
	best := int32(-1)
	x0, x1, y0, y1 := g.cellRange(from, radius)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, sp := range g.cells[y*g.nx+x] {
				if best >= 0 && sp.Slot >= best {
					continue
				}
				if Dist(from, sp.Pos) <= radius {
					best = sp.Slot
				}
			}
		}
	}
	return best
}

// Cell returns the points indexed in cell c (see Cells.CellIndex), in the
// order Each visits them. The slice is the grid's own: read-only, and
// valid only until the next mutation.
func (g *SlotGrid) Cell(c int) []SlotPoint { return g.cells[c] }

// Each calls fn for every indexed point. Iteration order is by cell, then
// insertion order within the cell — deterministic for a deterministic
// mutation history.
func (g *SlotGrid) Each(fn func(slot int32, p Point)) {
	for _, cell := range g.cells {
		for _, sp := range cell {
			fn(sp.Slot, sp.Pos)
		}
	}
}
