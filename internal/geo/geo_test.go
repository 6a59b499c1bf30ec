package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistances(t *testing.T) {
	// Times Square to Grand Central is roughly 1.1 km.
	ts := LatLng{Lat: 40.7580, Lng: -73.9855}
	gc := LatLng{Lat: 40.7527, Lng: -73.9772}
	d := HaversineMeters(ts, gc)
	if d < 850 || d > 1200 {
		t.Errorf("Times Square - Grand Central = %.0f m, want ~900-1100 m", d)
	}
	if HaversineMeters(ts, ts) != 0 {
		t.Errorf("distance to self should be 0")
	}
}

func TestHaversineSymmetry(t *testing.T) {
	f := func(lat1, lng1, lat2, lng2 float64) bool {
		a := LatLng{Lat: math.Mod(lat1, 80), Lng: math.Mod(lng1, 180)}
		b := LatLng{Lat: math.Mod(lat2, 80), Lng: math.Mod(lng2, 180)}
		d1 := HaversineMeters(a, b)
		d2 := HaversineMeters(b, a)
		return almostEqual(d1, d2, 1e-6) && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(LatLng{Lat: 40.7549, Lng: -73.9840})
	f := func(dx, dy float64) bool {
		p := Point{X: math.Mod(dx, 5000), Y: math.Mod(dy, 5000)}
		got := pr.ToPlane(pr.ToLatLng(p))
		return almostEqual(got.X, p.X, 0.01) && almostEqual(got.Y, p.Y, 0.01)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionAgreesWithHaversine(t *testing.T) {
	origin := LatLng{Lat: 37.7793, Lng: -122.4193} // downtown SF
	pr := NewProjection(origin)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
		ll := pr.ToLatLng(p)
		planar := p.Norm()
		sphere := HaversineMeters(origin, ll)
		if !almostEqual(planar, sphere, planar*0.002+0.5) {
			t.Fatalf("projection error too large: planar=%.2f sphere=%.2f", planar, sphere)
		}
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{100, 50})
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{50, 25}, true},
		{Point{0, 0}, true},
		{Point{100, 50}, true},
		{Point{-1, 25}, false},
		{Point{50, 51}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	cl := r.Clamp(Point{150, -20})
	if cl != (Point{100, 0}) {
		t.Errorf("Clamp = %v, want (100,0)", cl)
	}
}

func TestRectDistToBoundary(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{100, 100})
	if d := r.DistToBoundary(Point{50, 50}); d != 50 {
		t.Errorf("center dist = %v, want 50", d)
	}
	if d := r.DistToBoundary(Point{10, 50}); d != 10 {
		t.Errorf("near-west dist = %v, want 10", d)
	}
	if d := r.DistToBoundary(Point{-5, 50}); d != 0 {
		t.Errorf("outside dist = %v, want 0", d)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Point{100, 50}, Point{0, 0})
	if r.Min != (Point{0, 0}) || r.Max != (Point{100, 50}) {
		t.Errorf("NewRect did not normalize: %+v", r)
	}
}

func TestPolygonContains(t *testing.T) {
	// L-shaped polygon.
	pg := Polygon{Vertices: []Point{
		{0, 0}, {100, 0}, {100, 50}, {50, 50}, {50, 100}, {0, 100},
	}}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{25, 25}, true},
		{Point{75, 25}, true},
		{Point{25, 75}, true},
		{Point{75, 75}, false}, // inside bounding box, outside the L
		{Point{-10, 50}, false},
		{Point{200, 200}, false},
	}
	for _, c := range cases {
		if got := pg.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPolygonDegenerate(t *testing.T) {
	if (Polygon{}).Contains(Point{0, 0}) {
		t.Error("empty polygon should contain nothing")
	}
	line := Polygon{Vertices: []Point{{0, 0}, {10, 10}}}
	if line.Contains(Point{5, 5}) {
		t.Error("2-vertex polygon should contain nothing")
	}
}

func TestPolygonCentroidAndBounds(t *testing.T) {
	pg := RectPolygon(NewRect(Point{0, 0}, Point{10, 20}))
	c := pg.Centroid()
	if !almostEqual(c.X, 5, 1e-9) || !almostEqual(c.Y, 10, 1e-9) {
		t.Errorf("centroid = %v, want (5,10)", c)
	}
	b := pg.Bounds()
	if b.Min != (Point{0, 0}) || b.Max != (Point{10, 20}) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestRectPolygonContainsMatchesRect(t *testing.T) {
	r := NewRect(Point{-50, -20}, Point{70, 90})
	pg := RectPolygon(r)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := Point{X: rng.Float64()*300 - 150, Y: rng.Float64()*300 - 150}
		// Skip points near the boundary where edge conventions may differ.
		if math.Abs(p.X-r.Min.X) < 1e-6 || math.Abs(p.X-r.Max.X) < 1e-6 ||
			math.Abs(p.Y-r.Min.Y) < 1e-6 || math.Abs(p.Y-r.Max.Y) < 1e-6 {
			continue
		}
		inRect := p.X > r.Min.X && p.X < r.Max.X && p.Y > r.Min.Y && p.Y < r.Max.Y
		if pg.Contains(p) != inRect {
			t.Fatalf("polygon/rect disagree at %v", p)
		}
	}
}

func TestWalkingTime(t *testing.T) {
	// 830 meters at 83 m/min should take 10 minutes.
	got := WalkingTime(Point{0, 0}, Point{830, 0})
	if !almostEqual(got, 600, 1e-6) {
		t.Errorf("WalkingTime = %v s, want 600", got)
	}
}

func TestPointVectorOps(t *testing.T) {
	a := Point{3, 4}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if a.Add(Point{1, 1}) != (Point{4, 5}) {
		t.Error("Add failed")
	}
	if a.Sub(Point{1, 1}) != (Point{2, 3}) {
		t.Error("Sub failed")
	}
	if a.Scale(2) != (Point{6, 8}) {
		t.Error("Scale failed")
	}
}

// portableHypot is the pure-Go math.Hypot (Go's src/math/hypot.go, BSD
// licence): what math.Hypot runs on every architecture without an
// assembly version, arm64 among them. On amd64 math.Hypot is assembly.
func portableHypot(p, q float64) float64 {
	p, q = math.Abs(p), math.Abs(q)
	switch {
	case math.IsInf(p, 1) || math.IsInf(q, 1):
		return math.Inf(1)
	case math.IsNaN(p) || math.IsNaN(q):
		return math.NaN()
	}
	if p < q {
		p, q = q, p
	}
	if p == 0 {
		return 0
	}
	q = q / p
	return p * math.Sqrt(1+q*q)
}

// TestHypotAxisBound checks the premise of AxisBeyond, and so of the
// k-nearest scans' pruning: both Hypot code paths return at least
// max(|p|, |q|), so an offset beyond d on one axis puts the distance
// beyond d. Inputs are drawn from every exponent, subnormals included,
// plus zeros, equal arguments and values near 1e300.
func TestHypotAxisBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1e9 + 7))
	special := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-300, 0.1, 1, 3, 50, 1e300,
		math.Nextafter(1e300, 0), math.Nextafter(1e300, math.Inf(1)), 1.7e308, math.MaxFloat64, math.Inf(1)}
	var vals []float64
	for _, v := range special {
		vals = append(vals, v, -v)
	}
	for len(vals) < 4000 {
		var v float64
		switch rng.Intn(3) {
		case 0: // any finite bit pattern: every exponent, subnormals
			v = math.Float64frombits(rng.Uint64())
		case 1: // subnormal
			v = math.Float64frombits(rng.Uint64() & (1<<52 - 1))
		default: // the plane's scale
			v = (rng.Float64() - 0.5) * 1e4
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals = append(vals, v)
		}
	}
	check := func(p, q float64) {
		m := max(math.Abs(p), math.Abs(q))
		if h := math.Hypot(p, q); !(h >= m) {
			t.Fatalf("math.Hypot(%g, %g) = %g, below max(|p|, |q|) = %g", p, q, h, m)
		}
		if h := portableHypot(p, q); !(h >= m) {
			t.Fatalf("portable hypot(%g, %g) = %g, below max(|p|, |q|) = %g", p, q, h, m)
		}
		if d := math.Nextafter(m, math.Inf(-1)); !AxisBeyond(Point{p, q}, Point{}, d) || !(Dist(Point{p, q}, Point{}) > d) {
			t.Fatalf("AxisBeyond/Dist disagree at (%g, %g) against %g", p, q, d)
		}
	}
	for _, p := range vals[:len(special)*2] {
		for _, q := range vals[:len(special)*2] {
			check(p, q)
		}
	}
	for i, p := range vals {
		check(p, p)                        // equal arguments
		check(p, vals[(i*7919)%len(vals)]) // a spread of pairs
		check(p, vals[rng.Intn(len(vals))])
	}
}
