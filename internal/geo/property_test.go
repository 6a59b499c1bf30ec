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
		g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 75, 1)
		ref := make(map[int32]Point)
		for op := 0; op < 300; op++ {
			s := int32(rng.Intn(50))
			p := Point{rng.Float64() * 1200, rng.Float64()*1200 - 100} // may exceed bounds
			switch rng.Intn(3) {
			case 0:
				g.Insert(0, s, p)
				ref[s] = p
			case 1:
				g.Move(s, p) // a no-op when absent
				if _, ok := ref[s]; ok {
					ref[s] = p
				}
			case 2:
				g.Remove(s)
				delete(ref, s)
			}
			if g.Len(0) != len(ref) {
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
		g.Each(0, func(s int32, p Point) {
			if ref[s] == p {
				seen++
			}
		})
		if seen != len(ref) {
			return false
		}
		// KNearest over the full set matches brute force.
		want := bruteNearest(ref, Point{500, 500}, 10)
		got := g.KNearest(0, Point{500, 500}, 10)
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGridLayersMatchBruteForce drives a grid of several layers through
// generated Insert/Move/Remove traffic and holds every layer's KNearest
// and FirstWithin to a brute force over that layer's slots alone, so a
// slot one layer holds is never an answer on another. Insert refuses (it
// panics, changing nothing) a slot another layer holds rather than move it.
func TestGridLayersMatchBruteForce(t *testing.T) {
	const layers, slots = 4, 60
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 75, layers)
		refs := make([]map[int32]Point, layers)
		for l := range refs {
			refs[l] = make(map[int32]Point)
		}
		layerOf := make(map[int32]int)
		for op := 1; op <= 600; op++ {
			s := int32(rng.Intn(slots))
			p := Point{rng.Float64() * 1200, rng.Float64()*1200 - 100} // may exceed bounds
			held, ok := layerOf[s]
			switch rng.Intn(3) {
			case 0:
				l := rng.Intn(layers)
				if ok && l != held {
					if !insertPanics(g, l, s, p) {
						t.Logf("seed %d: Insert into layer %d of slot %d held by layer %d did not panic", seed, l, s, held)
						return false
					}
					break
				}
				g.Insert(l, s, p)
				refs[l][s] = p
				layerOf[s] = l
			case 1:
				g.Move(s, p) // a no-op when absent
				if ok {
					refs[held][s] = p
				}
			case 2:
				g.Remove(s)
				if ok {
					delete(refs[held], s)
					delete(layerOf, s)
				}
			}
			if op%50 == 0 && !layersMatch(t, g, refs, layerOf, rng) {
				t.Logf("seed %d: after %d operations", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// insertPanics reports whether g.Insert(layer, s, p) panics.
func insertPanics(g *SlotGrid, layer int, s int32, p Point) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	g.Insert(layer, s, p)
	return false
}

// layersMatch checks every layer of g against its reference set.
func layersMatch(t *testing.T, g *SlotGrid, refs []map[int32]Point, layerOf map[int32]int, rng *rand.Rand) bool {
	for s := int32(0); s < 64; s++ {
		want, ok := layerOf[s]
		if !ok {
			want = -1
		}
		if got := g.Layer(s); got != want {
			t.Logf("Layer(%d) = %d, want %d", s, got, want)
			return false
		}
	}
	for l, ref := range refs {
		if g.Len(l) != len(ref) {
			t.Logf("layer %d: Len = %d, want %d", l, g.Len(l), len(ref))
			return false
		}
		from := Point{rng.Float64()*1200 - 100, rng.Float64() * 1200}
		for _, k := range []int{1, 5, 100} {
			got, want := g.KNearest(l, from, k), bruteNearest(ref, from, k)
			if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
				t.Logf("layer %d KNearest(%v, %d) = %v, want %v", l, from, k, got, want)
				return false
			}
		}
		for _, radius := range []float64{60, 300, 2000} {
			want := int32(-1)
			for s, p := range ref {
				if Dist(from, p) <= radius && (want < 0 || s < want) {
					want = s
				}
			}
			if got := g.FirstWithin(l, from, radius); got != want {
				t.Logf("layer %d FirstWithin(%v, %v) = %d, want %d", l, from, radius, got, want)
				return false
			}
		}
	}
	return true
}

// TestKNearestIsPrefixProperty checks that KNearest(k) is a prefix of
// KNearest(k+1) for any point set.
func TestKNearestIsPrefixProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewSlotGrid(NewRect(Point{0, 0}, Point{500, 500}), 50, 1)
		for s := int32(0); s < 40; s++ {
			g.Insert(0, s, Point{rng.Float64() * 500, rng.Float64() * 500})
		}
		q := Point{rng.Float64() * 500, rng.Float64() * 500}
		a := g.KNearest(0, q, k)
		b := g.KNearest(0, q, k+1)
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
