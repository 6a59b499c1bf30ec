package geo

import "math"

// Cells is the geometry of a uniform grid of square cells laid over a
// rectangle: which cell a point falls in, which cells a radius query can
// touch, and in what order an expanding nearest-neighbour search visits
// them. It owns no storage. Every spatial index in the repo — SlotGrid,
// AreaIndex, internal/sim's snapshot index, internal/road's node grid —
// holds one and keeps only its own per-cell data, so indexes built over
// the same bounds and cell size agree on every cell number and every
// search order by construction.
//
// Points outside the bounds are clamped into the boundary cells. Clamping
// never moves two coordinates further apart, so distance lower bounds
// derived from cell numbers hold for clamped points too and searches stay
// exact. The zero value has no cells; build one with NewCells.
type Cells struct {
	bounds Rect
	size   float64
	nx, ny int
}

// NewCells lays square cells of the given edge over bounds. One spare
// column and row past the far edges keep points exactly on the maximum
// boundary inside the grid without clamping.
func NewCells(bounds Rect, size float64) Cells {
	if size <= 0 {
		panic("geo: NewCells size must be positive")
	}
	return Cells{
		bounds: bounds,
		size:   size,
		nx:     max(1, int(math.Ceil(bounds.Width()/size))+1),
		ny:     max(1, int(math.Ceil(bounds.Height()/size))+1),
	}
}

// NumCells returns how many cells the grid has; cell indexes are
// row-major in [0, NumCells).
func (c *Cells) NumCells() int { return c.nx * c.ny }

// col and row return the clamped cell column of x and cell row of y.
func (c *Cells) col(x float64) int {
	return min(max(int((x-c.bounds.Min.X)/c.size), 0), c.nx-1)
}

func (c *Cells) row(y float64) int {
	return min(max(int((y-c.bounds.Min.Y)/c.size), 0), c.ny-1)
}

// CellIndex returns the index of the cell holding p, clamped into the
// grid.
func (c *Cells) CellIndex(p Point) int { return c.row(p.Y)*c.nx + c.col(p.X) }

// cellRect returns the rectangle cell (cx, cy) covers.
func (c *Cells) cellRect(cx, cy int) Rect {
	return Rect{
		Min: Point{c.bounds.Min.X + float64(cx)*c.size, c.bounds.Min.Y + float64(cy)*c.size},
		Max: Point{c.bounds.Min.X + float64(cx+1)*c.size, c.bounds.Min.Y + float64(cy+1)*c.size},
	}
}

// cellRange returns the inclusive column and row ranges of the cells a
// disc of the given radius around from can overlap. A disc wholly to one
// side of the grid yields an empty range (x1 < x0 or y1 < y0).
func (c *Cells) cellRange(from Point, radius float64) (x0, x1, y0, y1 int) {
	x0 = max(0, int((from.X-radius-c.bounds.Min.X)/c.size))
	x1 = min(c.nx-1, int((from.X+radius-c.bounds.Min.X)/c.size))
	y0 = max(0, int((from.Y-radius-c.bounds.Min.Y)/c.size))
	y1 = min(c.ny-1, int((from.Y+radius-c.bounds.Min.Y)/c.size))
	return x0, x1, y0, y1
}

// WalkRings drives an exact k-nearest search around from. It calls scan
// once for every cell of ring 0 (the cell holding from), then ring 1 (its
// eight neighbours), and so on outwards, rows ascending and columns
// ascending within a ring, skipping cells that fall off the grid.
//
// scan examines one cell's points and returns the search's current bound:
// the distance of the k-th best point held so far, or +Inf while fewer
// than k are held. A point in ring r is at least (r-1)·size away from
// from, so the walk stops before the first ring whose nearest possible
// point cannot beat that bound, or once a ring lies wholly off the grid.
// Within a cell scan may skip, without its distance, a point that
// AxisBeyond puts beyond the bound: its distance is greater still, so the
// answer is exact either way. scan is only called, never retained, so a
// closure passed here stays on the caller's stack.
func (c *Cells) WalkRings(from Point, scan func(cell int) (kth float64)) {
	cx, cy := c.col(from.X), c.row(from.Y)
	kth := math.Inf(1)
	for ring := 0; ; ring++ {
		if kth <= float64(ring-1)*c.size {
			return
		}
		onGrid := false
		for dy := -ring; dy <= ring; dy++ {
			y := cy + dy
			if y < 0 || y >= c.ny {
				continue
			}
			// The top and bottom rows span the ring; the rows between
			// touch it only at their two ends.
			step := 2 * ring
			if dy == -ring || dy == ring {
				step = 1
			}
			for dx := -ring; dx <= ring; dx += step {
				x := cx + dx
				if x < 0 || x >= c.nx {
					continue
				}
				onGrid = true
				kth = scan(y*c.nx + x)
			}
		}
		if !onGrid {
			return
		}
	}
}
