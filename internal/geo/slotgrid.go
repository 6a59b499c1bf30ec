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
// A grid has a fixed number of layers, each an index of its own over the
// same cells (one per product, say), and one slot table for all of them:
// a slot lives in at most one layer at a time. Queries name their layer;
// Move and Remove find it from the table. The embedded Cells supplies the
// geometry and the search order; SlotGrid adds only the per-cell point
// lists. Equal-distance results order by ascending slot.
type SlotGrid struct {
	Cells
	cells  [][]SlotPoint // layer·NumCells + cell
	cellOf []int32       // slot -> layer·NumCells + cell, -1 when absent
	idxOf  []int32       // slot -> position within its cell slice
	n      []int         // points per layer
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

// NewSlotGrid creates an index of the given number of layers covering
// bounds with square cells of the given size. Points outside bounds are
// clamped into the boundary cells, so the index tolerates cars that wander
// slightly outside the service region (as the paper's edge-filtering logic
// expects).
func NewSlotGrid(bounds Rect, cellSize float64, layers int) *SlotGrid {
	c := NewCells(bounds, cellSize)
	return &SlotGrid{Cells: c, cells: make([][]SlotPoint, layers*c.NumCells()), n: make([]int, layers)}
}

// Len returns the number of points indexed in layer.
func (g *SlotGrid) Len(layer int) int { return g.n[layer] }

// layerCells returns layer's cells, indexed by cell number.
func (g *SlotGrid) layerCells(layer int) [][]SlotPoint {
	nc := g.NumCells()
	return g.cells[layer*nc : (layer+1)*nc]
}

// Contains reports whether slot is indexed in any layer.
func (g *SlotGrid) Contains(slot int32) bool {
	return slot >= 0 && slot < int32(len(g.cellOf)) && g.cellOf[slot] >= 0
}

// Layer returns the layer slot is indexed in, or -1.
func (g *SlotGrid) Layer(slot int32) int {
	if !g.Contains(slot) {
		return -1
	}
	return int(g.cellOf[slot]) / g.NumCells()
}

// Insert adds slot to layer at p. Inserting a slot the layer holds moves
// it; inserting a slot another layer holds panics, for a slot lives in one
// layer at a time.
func (g *SlotGrid) Insert(layer int, slot int32, p Point) {
	if l := g.Layer(slot); l >= 0 {
		if l != layer {
			panic("geo: SlotGrid.Insert of a slot another layer holds")
		}
		g.Move(slot, p)
		return
	}
	for int32(len(g.cellOf)) <= slot {
		g.cellOf = append(g.cellOf, -1)
		g.idxOf = append(g.idxOf, -1)
	}
	g.link(slot, int32(layer*g.NumCells()+g.CellIndex(p)), p)
	g.n[layer]++
}

// link appends slot at p to cell ci (layer base included).
func (g *SlotGrid) link(slot, ci int32, p Point) {
	g.cells[ci] = append(g.cells[ci], SlotPoint{Slot: slot, Pos: p})
	g.cellOf[slot] = ci
	g.idxOf[slot] = int32(len(g.cells[ci]) - 1)
}

// Remove deletes slot from its layer. Removing an absent slot is a no-op.
func (g *SlotGrid) Remove(slot int32) {
	if !g.Contains(slot) {
		return
	}
	g.n[g.Layer(slot)]--
	g.unlink(slot)
	g.cellOf[slot] = -1
	g.idxOf[slot] = -1
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

// Move updates slot's position within its layer, relocating it between
// cells only when needed. Moving an absent slot is a no-op.
func (g *SlotGrid) Move(slot int32, p Point) {
	if !g.Contains(slot) {
		return
	}
	ci := g.cellOf[slot]
	base := ci - ci%int32(g.NumCells())
	ni := base + int32(g.CellIndex(p))
	if ni == ci {
		g.cells[ci][g.idxOf[slot]].Pos = p
		return
	}
	g.unlink(slot)
	g.link(slot, ni, p)
}

// MoveBatch applies Move for every entry in order; phase-parallel callers
// buffer updates per shard and commit them here so the grid sees one
// ordered serial write stream.
func (g *SlotGrid) MoveBatch(ups []SlotPoint) {
	for _, u := range ups {
		g.Move(u.Slot, u.Pos)
	}
}

// InsertBatch applies Insert into layer for every entry in order.
func (g *SlotGrid) InsertBatch(layer int, ups []SlotPoint) {
	for _, u := range ups {
		g.Insert(layer, u.Slot, u.Pos)
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

// KNearest returns up to k points of layer closest to from, sorted by
// ascending distance with ties broken by ascending slot. It allocates a
// fresh result slice; hot paths use KNearestInto with a reused buffer.
func (g *SlotGrid) KNearest(layer int, from Point, k int) []SlotNeighbor {
	return g.KNearestInto(layer, from, k, nil)
}

// KNearestInto is KNearest writing into buf (reused, returned re-sliced).
// The search keeps a sorted bounded top-k while the ring walk expands, so
// it never materializes or sorts the full candidate set — with dense
// cells this is the difference between O(cells·k) and O(cands·log cands)
// per query. The result set and order are identical to a full
// collect-and-sort.
func (g *SlotGrid) KNearestInto(layer int, from Point, k int, buf []SlotNeighbor) []SlotNeighbor {
	buf = buf[:0]
	if k <= 0 || g.n[layer] == 0 {
		return buf
	}
	cells := g.layerCells(layer)
	kth := math.Inf(1)
	g.WalkRings(from, func(cell int) float64 {
		for _, sp := range cells[cell] {
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

// FirstWithin returns the lowest slot of layer within radius of from, or
// -1. This is the deterministic "first eligible in registration order"
// query the POOL join matcher uses.
func (g *SlotGrid) FirstWithin(layer int, from Point, radius float64) int32 {
	cells := g.layerCells(layer)
	best := int32(-1)
	x0, x1, y0, y1 := g.cellRange(from, radius)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			for _, sp := range cells[y*g.nx+x] {
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

// Cell returns the points layer indexes in cell c (see Cells.CellIndex),
// in the order Each visits them. The slice is the grid's own: read-only,
// and valid only until the next mutation.
func (g *SlotGrid) Cell(layer, c int) []SlotPoint { return g.layerCells(layer)[c] }

// Each calls fn for every point indexed in layer. Iteration order is by
// cell, then insertion order within the cell — deterministic for a
// deterministic mutation history.
func (g *SlotGrid) Each(layer int, fn func(slot int32, p Point)) {
	for _, cell := range g.layerCells(layer) {
		for _, sp := range cell {
			fn(sp.Slot, sp.Pos)
		}
	}
}
