package geo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// TestGridRandomOpsInvariants drives the grid through random operation
// sequences and checks its bookkeeping against a reference map.
func TestGridRandomOpsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 75)
		ref := make(map[int32]Point)
		for op := 0; op < 300; op++ {
			s := int32(rng.Intn(50))
			p := Point{rng.Float64() * 1200, rng.Float64()*1200 - 100} // may exceed bounds
			switch rng.Intn(3) {
			case 0:
				g.Insert(s, p)
				ref[s] = p
			case 1:
				g.Move(s, p)
				ref[s] = p // Move inserts when absent
			case 2:
				g.Remove(s)
				delete(ref, s)
			}
			if g.Len() != len(ref) {
				return false
			}
		}
		// Every reference point must be findable at its exact position,
		// and Each must report exactly the reference set.
		for s, p := range ref {
			got, ok := g.Position(s)
			if !ok || got != p || !g.Contains(s) {
				return false
			}
		}
		seen := 0
		g.Each(func(s int32, p Point) {
			if ref[s] == p {
				seen++
			}
		})
		if seen != len(ref) {
			return false
		}
		// KNearest over the full set matches brute force.
		want := bruteNearest(ref, Point{500, 500}, 10)
		got := g.KNearest(Point{500, 500}, 10)
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestKNearestIsPrefixProperty checks that KNearest(k) is a prefix of
// KNearest(k+1) for any point set.
func TestKNearestIsPrefixProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewSlotGrid(NewRect(Point{0, 0}, Point{500, 500}), 50)
		for s := int32(0); s < 40; s++ {
			g.Insert(s, Point{rng.Float64() * 500, rng.Float64() * 500})
		}
		q := Point{rng.Float64() * 500, rng.Float64() * 500}
		a := g.KNearest(q, k)
		b := g.KNearest(q, k+1)
		return len(a) <= len(b) && reflect.DeepEqual(a, b[:len(a)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPolygonContainsCentroidProperty: for convex (rectangular) polygons
// the centroid is always inside.
func TestPolygonContainsCentroidProperty(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		// Normalize into a non-degenerate rect.
		if x1 == x2 {
			x2 = x1 + 1
		}
		if y1 == y2 {
			y2 = y1 + 1
		}
		pg := RectPolygon(NewRect(Point{x1, y1}, Point{x2, y2}))
		return pg.Contains(pg.Centroid())
	}
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vs []reflect.Value, rng *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(rng.Float64()*2000 - 1000)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
