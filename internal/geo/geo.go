// Package geo provides the geographic primitives used throughout the
// reproduction: latitude/longitude coordinates, a local tangent-plane
// projection in meters, haversine distances, polygons for surge areas and
// measurement regions, and a uniform-grid spatial index for k-nearest-car
// queries.
//
// All simulator-internal geometry is done on a local plane (east/north
// meters relative to a city origin) because the measurement regions in the
// paper span only a few kilometers; the projection error at that scale is
// far below the GPS noise the paper tolerates. Latitude/longitude appears
// only at the API boundary, matching the real Uber wire format.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for haversine distances.
const EarthRadiusMeters = 6371000.0

// WalkingSpeed is the walking speed assumed by the paper's surge-avoidance
// analysis (§6): 83 meters per minute, i.e. 5 km/h.
const WalkingSpeed = 83.0 / 60.0 // meters per second

// LatLng is a WGS84 coordinate in degrees, as carried on the wire by the
// emulated Uber API.
type LatLng struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// String renders the coordinate with the ~1 m precision smartphones report.
func (ll LatLng) String() string {
	return fmt.Sprintf("(%.5f,%.5f)", ll.Lat, ll.Lng)
}

// HaversineMeters returns the great-circle distance between two coordinates.
func HaversineMeters(a, b LatLng) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLng := (b.Lng - a.Lng) * math.Pi / 180
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLng / 2)
	h := s1*s1 + math.Cos(lat1)*math.Cos(lat2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Point is a position on the local tangent plane, in meters east (X) and
// north (Y) of a Projection origin.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Add returns p translated by d.
func (p Point) Add(d Point) Point { return Point{p.X + d.X, p.Y + d.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Norm returns the Euclidean length of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between two plane points.
func Dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// AxisBeyond reports whether b's x or y offset from a alone exceeds d,
// from Dist's own subtractions. Unless an offset is NaN it implies
// Dist(a, b) > d, exactly: math.Hypot returns max·sqrt(1+(min/max)²) with
// the sqrt ≥ 1, so it is never below max(|x|, |y|) in floating point. A
// k-nearest scan that keeps its k-th best distance in d skips such a point
// without its Hypot.
func AxisBeyond(a, b Point, d float64) bool {
	return math.Abs(a.X-b.X) > d || math.Abs(a.Y-b.Y) > d
}

// WalkingTime returns the time needed to walk the straight-line distance
// between a and b at the paper's 5 km/h walking speed, in seconds.
func WalkingTime(a, b Point) float64 { return Dist(a, b) / WalkingSpeed }

// Projection converts between LatLng and local plane coordinates using an
// equirectangular approximation anchored at Origin. Accurate to well under
// 0.1% over the few-kilometer regions this study measures.
type Projection struct {
	Origin LatLng
	// cached meters-per-degree at the origin latitude
	mPerDegLat float64
	mPerDegLng float64
}

// NewProjection returns a local tangent-plane projection anchored at origin.
func NewProjection(origin LatLng) *Projection {
	latRad := origin.Lat * math.Pi / 180
	return &Projection{
		Origin:     origin,
		mPerDegLat: math.Pi / 180 * EarthRadiusMeters,
		mPerDegLng: math.Pi / 180 * EarthRadiusMeters * math.Cos(latRad),
	}
}

// ToPlane projects a coordinate onto the local plane.
func (pr *Projection) ToPlane(ll LatLng) Point {
	return Point{
		X: (ll.Lng - pr.Origin.Lng) * pr.mPerDegLng,
		Y: (ll.Lat - pr.Origin.Lat) * pr.mPerDegLat,
	}
}

// ToLatLng unprojects a plane point back to a coordinate.
func (pr *Projection) ToLatLng(p Point) LatLng {
	return LatLng{
		Lat: pr.Origin.Lat + p.Y/pr.mPerDegLat,
		Lng: pr.Origin.Lng + p.X/pr.mPerDegLng,
	}
}

// Rect is an axis-aligned rectangle on the local plane. Min is the
// south-west corner and Max the north-east corner.
type Rect struct {
	Min, Max Point
}

// NewRect normalizes the two corners into a Rect.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the east-west extent in meters.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the north-south extent in meters.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns the nearest point to p inside r. Branches instead of
// math.Min/Max: this sits on the per-driver cruise path, where the
// function-call dispatch for the NaN-propagating versions is measurable.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	} else if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	} else if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// DistToBoundary returns the distance from p to the nearest edge of r.
// It is 0 for points outside r.
func (r Rect) DistToBoundary(p Point) float64 {
	if !r.Contains(p) {
		return 0
	}
	d := math.Min(p.X-r.Min.X, r.Max.X-p.X)
	return math.Min(d, math.Min(p.Y-r.Min.Y, r.Max.Y-p.Y))
}

// Polygon is a simple (non-self-intersecting) polygon on the local plane,
// used for surge areas. Vertices are listed in order; the ring is implicitly
// closed.
type Polygon struct {
	Vertices []Point
}

// Contains reports whether p is inside the polygon, using the even-odd
// ray-casting rule. Points exactly on an edge may land on either side, which
// is acceptable: surge areas in the paper are hand-drawn and clients are
// never placed on a boundary.
func (pg Polygon) Contains(p Point) bool {
	n := len(pg.Vertices)
	if n < 3 {
		return false
	}
	in := false
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		if (vi.Y > p.Y) != (vj.Y > p.Y) {
			xCross := (vj.X-vi.X)*(p.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if p.X < xCross {
				in = !in
			}
		}
		j = i
	}
	return in
}

// Bounds returns the axis-aligned bounding rectangle of the polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg.Vertices) == 0 {
		return Rect{}
	}
	r := Rect{Min: pg.Vertices[0], Max: pg.Vertices[0]}
	for _, v := range pg.Vertices[1:] {
		r.Min.X = math.Min(r.Min.X, v.X)
		r.Min.Y = math.Min(r.Min.Y, v.Y)
		r.Max.X = math.Max(r.Max.X, v.X)
		r.Max.Y = math.Max(r.Max.Y, v.Y)
	}
	return r
}

// Centroid returns the area centroid of the polygon.
func (pg Polygon) Centroid() Point {
	n := len(pg.Vertices)
	if n == 0 {
		return Point{}
	}
	if n < 3 {
		var c Point
		for _, v := range pg.Vertices {
			c = c.Add(v)
		}
		return c.Scale(1 / float64(n))
	}
	var cx, cy, area float64
	j := n - 1
	for i := 0; i < n; i++ {
		vi, vj := pg.Vertices[i], pg.Vertices[j]
		cross := vj.X*vi.Y - vi.X*vj.Y
		area += cross
		cx += (vj.X + vi.X) * cross
		cy += (vj.Y + vi.Y) * cross
		j = i
	}
	area /= 2
	if area == 0 {
		return pg.Vertices[0]
	}
	return Point{cx / (6 * area), cy / (6 * area)}
}

// RectPolygon returns the polygon covering r.
func RectPolygon(r Rect) Polygon {
	return Polygon{Vertices: []Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}}
}
