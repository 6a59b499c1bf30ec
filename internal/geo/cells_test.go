package geo

import (
	"math"
	"testing"
)

func TestCellsIndexClampsAndCovers(t *testing.T) {
	c := NewCells(NewRect(Point{-100, 50}, Point{900, 450}), 250)
	// ceil(1000/250)+1 by ceil(400/250)+1: the spare column and row hold
	// points on the far boundary.
	if c.nx != 5 || c.ny != 3 || c.NumCells() != 15 {
		t.Fatalf("grid is %d×%d (%d cells), want 5×3", c.nx, c.ny, c.NumCells())
	}
	for _, tc := range []struct {
		p    Point
		want int
	}{
		{Point{-100, 50}, 0},
		{Point{149.9, 299.9}, 0},
		{Point{150, 300}, 1*5 + 1},
		{Point{900, 450}, 1*5 + 4}, // far corner, in the spare column
		{Point{-1e9, -1e9}, 0},     // clamped
		{Point{1e9, 1e9}, 14},
		{Point{400, -1e9}, 2},
	} {
		if got := c.CellIndex(tc.p); got != tc.want {
			t.Errorf("CellIndex(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// TestWalkRingsOrderAndStop pins the two things every index delegates to
// the walk: each on-grid cell is offered once, nearer rings first, and
// the walk stops as soon as the reported bound rules the next ring out.
func TestWalkRingsOrderAndStop(t *testing.T) {
	c := NewCells(NewRect(Point{0, 0}, Point{900, 400}), 100)
	from := Point{250, 150} // cell (2, 1)
	ringOf := func(cell int) int {
		dx, dy := cell%c.nx-2, cell/c.nx-1
		return max(max(dx, -dx), max(dy, -dy))
	}

	seen := make(map[int]bool)
	last := 0
	c.WalkRings(from, func(cell int) float64 {
		if seen[cell] {
			t.Errorf("cell %d offered twice", cell)
		}
		seen[cell] = true
		if r := ringOf(cell); r < last {
			t.Errorf("cell %d of ring %d offered after ring %d", cell, r, last)
		} else {
			last = r
		}
		return math.Inf(1)
	})
	if len(seen) != c.NumCells() {
		t.Errorf("unbounded walk offered %d cells, want all %d", len(seen), c.NumCells())
	}

	// A bound of 120 m rules out ring 3 (≥ 200 m away) but not ring 2
	// (≥ 100 m away).
	maxRing := 0
	c.WalkRings(from, func(cell int) float64 {
		maxRing = max(maxRing, ringOf(cell))
		return 120
	})
	if maxRing != 2 {
		t.Errorf("walk with bound 120 reached ring %d, want 2", maxRing)
	}

	// From outside the bounds the walk starts at the clamped cell.
	first := -1
	c.WalkRings(Point{-5000, 5000}, func(cell int) float64 {
		if first < 0 {
			first = cell
		}
		return 0
	})
	if want := (c.ny - 1) * c.nx; first != want {
		t.Errorf("walk from outside started at cell %d, want %d", first, want)
	}
}
