package geo

import "math"

// AreaIndex answers "which polygon contains this point" in O(1) for a
// fixed set of polygons, replacing the linear point-in-polygon scan that
// every request otherwise pays. It rasterizes the polygons' union
// bounding box into a uniform grid and classifies each cell once at build
// time:
//
//   - a cell crossed by no polygon edge lies entirely inside or outside
//     every polygon, so the first-match answer is constant across the
//     cell and can be precomputed from any interior point;
//   - a cell touched by any edge is marked mixed and falls back to the
//     exact polygon tests at query time (first match in input order,
//     identical to the brute-force scan).
//
// The index is immutable after construction and safe for concurrent use.
type AreaIndex struct {
	grid   Cells
	areas  []Polygon
	bboxes []Rect
	cell   []int32 // resolved area per cell, or mixedCell
}

// mixedCell marks a raster cell crossed by a polygon edge; queries landing
// there run the exact test. Resolved cells store the area index, or -1 for
// "outside every polygon".
const mixedCell = int32(-2)

// maxAreaCells bounds the raster size; the cell edge is grown until the
// grid fits, so a tiny cellSize cannot allocate an unbounded index.
const maxAreaCells = 1 << 18

// NewAreaIndex rasterizes areas at the given cell size (meters). A
// non-positive cellSize picks ~128 cells along the longer axis. The input
// slice is retained and must not be mutated afterwards.
func NewAreaIndex(areas []Polygon, cellSize float64) *AreaIndex {
	ai := &AreaIndex{areas: areas}
	if len(areas) == 0 {
		return ai
	}
	ai.bboxes = make([]Rect, len(areas))
	bounds := areas[0].Bounds()
	for i, pg := range areas {
		b := pg.Bounds()
		ai.bboxes[i] = b
		bounds.Min.X = math.Min(bounds.Min.X, b.Min.X)
		bounds.Min.Y = math.Min(bounds.Min.Y, b.Min.Y)
		bounds.Max.X = math.Max(bounds.Max.X, b.Max.X)
		bounds.Max.Y = math.Max(bounds.Max.Y, b.Max.Y)
	}
	if cellSize <= 0 {
		cellSize = math.Max(bounds.Width(), bounds.Height()) / 128
	}
	if cellSize <= 0 {
		cellSize = 1 // degenerate (point/line) bounds
	}
	ai.grid = NewCells(bounds, cellSize)
	for ai.grid.NumCells() > maxAreaCells {
		cellSize *= 2
		ai.grid = NewCells(bounds, cellSize)
	}
	g := &ai.grid
	ai.cell = make([]int32, g.NumCells())
	for i := range ai.cell {
		ai.cell[i] = int32(-3) // unclassified
	}

	// Mark every cell overlapped by a polygon edge as mixed. Only cells
	// inside the edge's own bounding box need testing.
	for _, pg := range areas {
		n := len(pg.Vertices)
		for i := 0; i < n; i++ {
			a := pg.Vertices[i]
			b := pg.Vertices[(i+1)%n]
			x0 := g.col(math.Min(a.X, b.X))
			x1 := g.col(math.Max(a.X, b.X))
			y0 := g.row(math.Min(a.Y, b.Y))
			y1 := g.row(math.Max(a.Y, b.Y))
			for cy := y0; cy <= y1; cy++ {
				for cx := x0; cx <= x1; cx++ {
					idx := cy*g.nx + cx
					if ai.cell[idx] == mixedCell {
						continue
					}
					if segIntersectsRect(a, b, g.cellRect(cx, cy)) {
						ai.cell[idx] = mixedCell
					}
				}
			}
		}
	}

	// Resolve every untouched cell from its center: with no edge crossing
	// the cell, containment is constant across it.
	for cy := 0; cy < g.ny; cy++ {
		for cx := 0; cx < g.nx; cx++ {
			idx := cy*g.nx + cx
			if ai.cell[idx] == mixedCell {
				continue
			}
			ai.cell[idx] = int32(ai.exact(g.cellRect(cx, cy).Center()))
		}
	}
	return ai
}

// Find returns the index of the first polygon containing p, or -1 —
// exactly the answer the brute-force first-match scan gives.
func (ai *AreaIndex) Find(p Point) int {
	if len(ai.areas) == 0 {
		return -1
	}
	if !ai.grid.bounds.Contains(p) {
		return -1 // every polygon lies inside bounds
	}
	if a := ai.cell[ai.grid.CellIndex(p)]; a != mixedCell {
		return int(a)
	}
	return ai.exact(p)
}

// exact is the brute-force fallback: first polygon (in input order) whose
// bounding box and ring contain p.
func (ai *AreaIndex) exact(p Point) int {
	for i := range ai.areas {
		if ai.bboxes[i].Contains(p) && ai.areas[i].Contains(p) {
			return i
		}
	}
	return -1
}

// segIntersectsRect reports whether segment ab intersects (or touches)
// rect r, via Liang–Barsky clipping. Touching counts as intersecting,
// which only makes the raster conservatively mark more cells mixed.
func segIntersectsRect(a, b Point, r Rect) bool {
	t0, t1 := 0.0, 1.0
	dx, dy := b.X-a.X, b.Y-a.Y
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	return clip(-dx, a.X-r.Min.X) && clip(dx, r.Max.X-a.X) &&
		clip(-dy, a.Y-r.Min.Y) && clip(dy, r.Max.Y-a.Y) && t0 <= t1
}
