package geo

import (
	"math"
	"math/rand"
	"testing"
)

// bruteAreaOf is the reference first-match linear scan (what sim.AreaOf
// does); the index must agree with it on every point.
func bruteAreaOf(areas []Polygon, p Point) int {
	for i, a := range areas {
		if a.Contains(p) {
			return i
		}
	}
	return -1
}

// randomPolygon draws a convex-ish ring around a random center: a
// triangle to hexagon with vertices at jittered angles, so test sets
// include slanted edges, not just the axis-aligned city partitions.
func randomPolygon(rng *rand.Rand) Polygon {
	cx := rng.Float64()*8000 - 1000
	cy := rng.Float64()*8000 - 1000
	n := 3 + rng.Intn(4)
	radius := 200 + rng.Float64()*1500
	var pg Polygon
	for i := 0; i < n; i++ {
		ang := (float64(i) + rng.Float64()*0.8) / float64(n) * 2 * math.Pi
		r := radius * (0.5 + rng.Float64()*0.5)
		pg.Vertices = append(pg.Vertices, Point{
			X: cx + r*math.Cos(ang),
			Y: cy + r*math.Sin(ang),
		})
	}
	return pg
}

func TestAreaIndexMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nAreas := 1 + rng.Intn(6)
		areas := make([]Polygon, nAreas)
		for i := range areas {
			areas[i] = randomPolygon(rng)
		}
		ai := NewAreaIndex(areas, 150)
		for q := 0; q < 500; q++ {
			p := Point{X: rng.Float64()*11000 - 2000, Y: rng.Float64()*11000 - 2000}
			if got, want := ai.Find(p), bruteAreaOf(areas, p); got != want {
				t.Fatalf("trial %d: Find(%v) = %d, brute force = %d", trial, p, got, want)
			}
		}
		// Points pinned to raster cell boundaries force the mixed-cell /
		// cell-edge corners of the lookup.
		for q := 0; q < 200; q++ {
			g := ai.grid
			cx := rng.Intn(g.nx + 1)
			cy := rng.Intn(g.ny + 1)
			p := Point{
				X: g.bounds.Min.X + float64(cx)*g.size,
				Y: g.bounds.Min.Y + float64(cy)*g.size,
			}
			if rng.Intn(2) == 0 {
				p.Y = g.bounds.Min.Y + rng.Float64()*g.bounds.Height()
			} else {
				p.X = g.bounds.Min.X + rng.Float64()*g.bounds.Width()
			}
			if got, want := ai.Find(p), bruteAreaOf(areas, p); got != want {
				t.Fatalf("trial %d: boundary Find(%v) = %d, brute force = %d", trial, p, got, want)
			}
		}
		// Points on polygon vertices and edge midpoints land in mixed
		// cells and must take the exact path.
		for _, pg := range areas {
			n := len(pg.Vertices)
			for i, v := range pg.Vertices {
				w := pg.Vertices[(i+1)%n]
				mid := Point{X: (v.X + w.X) / 2, Y: (v.Y + w.Y) / 2}
				for _, p := range []Point{v, mid} {
					if got, want := ai.Find(p), bruteAreaOf(areas, p); got != want {
						t.Fatalf("trial %d: edge Find(%v) = %d, brute force = %d", trial, p, got, want)
					}
				}
			}
		}
	}
}

func TestAreaIndexOverlappingFirstMatch(t *testing.T) {
	// Two overlapping rectangles: points in the overlap must report the
	// first polygon, as the linear scan does.
	a := RectPolygon(NewRect(Point{0, 0}, Point{1000, 1000}))
	b := RectPolygon(NewRect(Point{500, 500}, Point{1500, 1500}))
	ai := NewAreaIndex([]Polygon{a, b}, 100)
	cases := []struct {
		p    Point
		want int
	}{
		{Point{250, 250}, 0},
		{Point{750, 750}, 0}, // overlap: first match
		{Point{1250, 1250}, 1},
		{Point{1750, 1750}, -1},
		{Point{-10, 500}, -1},
	}
	for _, c := range cases {
		if got := ai.Find(c.p); got != c.want {
			t.Errorf("Find(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestAreaIndexEmpty(t *testing.T) {
	ai := NewAreaIndex(nil, 100)
	if got := ai.Find(Point{1, 2}); got != -1 {
		t.Fatalf("empty index Find = %d, want -1", got)
	}
}

func TestSegIntersectsRect(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{-5, 5}, Point{15, 5}, true},    // crosses horizontally
		{Point{5, 5}, Point{6, 6}, true},      // fully inside
		{Point{-5, -5}, Point{-1, -1}, false}, // stops short of the rect
		{Point{-5, 15}, Point{15, 15}, false},
		{Point{11, 0}, Point{11, 10}, false},
		{Point{0, 10}, Point{10, 10}, true}, // touches the top edge
		{Point{-5, 5}, Point{0, 5}, true},   // ends exactly on the left edge
	}
	for _, c := range cases {
		if got := segIntersectsRect(c.a, c.b, r); got != c.want {
			t.Errorf("segIntersectsRect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
