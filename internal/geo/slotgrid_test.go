package geo

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestSlotGridMatchesBruteForce churns a SlotGrid through random
// insert/move/remove traffic and checks KNearest and FirstWithin against
// brute-force scans after every batch.
func TestSlotGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := Rect{Min: Point{X: 0, Y: 0}, Max: Point{X: 5000, Y: 3000}}
	g := NewSlotGrid(bounds, 250, 1)
	ref := map[int32]Point{} // live slots

	randPoint := func() Point {
		return Point{
			X: bounds.Min.X - 200 + rng.Float64()*(bounds.Width()+400),
			Y: bounds.Min.Y - 200 + rng.Float64()*(bounds.Height()+400),
		}
	}
	const slots = 400
	for round := 0; round < 60; round++ {
		for op := 0; op < 50; op++ {
			s := int32(rng.Intn(slots))
			switch rng.Intn(3) {
			case 0:
				p := randPoint()
				g.Insert(0, s, p)
				ref[s] = p
			case 1:
				p := randPoint()
				g.Move(s, p) // a no-op when absent
				if _, ok := ref[s]; ok {
					ref[s] = p
				}
			case 2:
				g.Remove(s)
				delete(ref, s)
			}
		}
		if g.Len(0) != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, g.Len(0), len(ref))
		}
		for _, s := range []int32{0, 5, 100} {
			p, ok := g.Position(s)
			wp, wok := ref[s]
			if ok != wok || (ok && p != wp) {
				t.Fatalf("round %d: Position(%d) = %v,%v want %v,%v", round, s, p, ok, wp, wok)
			}
		}
		from := randPoint()
		for _, k := range []int{1, 4, 8, 1000} {
			got := g.KNearest(0, from, k)
			want := bruteNearest(ref, from, k)
			if len(got) != len(want) {
				t.Fatalf("round %d k=%d: got %d results, want %d", round, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Slot != want[i].Slot || got[i].Dist != want[i].Dist {
					t.Fatalf("round %d k=%d idx=%d: got slot %d dist %v, want slot %d dist %v",
						round, k, i, got[i].Slot, got[i].Dist, want[i].Slot, want[i].Dist)
				}
			}
		}
		for _, radius := range []float64{100, 800, 10000} {
			got := g.FirstWithin(0, from, radius)
			want := int32(-1)
			for s, p := range ref {
				if Dist(from, p) <= radius && (want < 0 || s < want) {
					want = s
				}
			}
			if got != want {
				t.Fatalf("round %d radius=%v: FirstWithin = %d, want %d", round, radius, got, want)
			}
		}
	}
}

func bruteNearest(ref map[int32]Point, from Point, k int) []SlotNeighbor {
	all := make([]SlotNeighbor, 0, len(ref))
	for s, p := range ref {
		all = append(all, SlotNeighbor{Slot: s, Pos: p, Dist: Dist(from, p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Slot < all[j].Slot
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// BenchmarkSlotGridMove measures the O(1) move path against steady churn.
func BenchmarkSlotGridMove(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bounds := Rect{Min: Point{}, Max: Point{X: 20000, Y: 20000}}
	g := NewSlotGrid(bounds, 250, 1)
	const n = 10000
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 20000, Y: rng.Float64() * 20000}
		g.Insert(0, int32(i), pts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(i % n)
		pts[s].X += 15
		if pts[s].X > 20000 {
			pts[s].X = 0
		}
		g.Move(s, pts[s])
	}
}

// The cases below are the hand-picked grid behaviours (clamping, short
// results, degenerate k, idempotent mutations) that predate SlotGrid;
// they keep their TestGrid names so the suite's history stays comparable.

func checkNearest(t *testing.T, g *SlotGrid, ref map[int32]Point, from Point, k int) {
	t.Helper()
	got, want := g.KNearest(0, from, k), bruteNearest(ref, from, k)
	if len(got) != len(want) {
		t.Fatalf("from %v k=%d: got %d results, want %d", from, k, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("from %v k=%d idx=%d: got %+v, want %+v", from, k, i, got[i], want[i])
		}
	}
}

func TestGridKNearestMatchesBruteForce(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{2000, 2000}), 100, 1)
	rng := rand.New(rand.NewSource(42))
	ref := make(map[int32]Point)
	for s := int32(0); s < 500; s++ {
		p := Point{rng.Float64() * 2000, rng.Float64() * 2000}
		g.Insert(0, s, p)
		ref[s] = p
	}
	for trial := 0; trial < 100; trial++ {
		from := Point{rng.Float64() * 2000, rng.Float64() * 2000}
		checkNearest(t, g, ref, from, 1+rng.Intn(12))
	}
}

func TestGridKNearestAfterMovesAndRemoves(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 50, 1)
	rng := rand.New(rand.NewSource(7))
	ref := make(map[int32]Point)
	for s := int32(0); s < 200; s++ {
		p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		g.Insert(0, s, p)
		ref[s] = p
	}
	// Churn: move half, remove a quarter.
	for s := int32(0); s < 100; s++ {
		p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		g.Move(s, p)
		ref[s] = p
	}
	for s := int32(100); s < 150; s++ {
		g.Remove(s)
		delete(ref, s)
	}
	if g.Len(0) != len(ref) {
		t.Fatalf("Len = %d, want %d", g.Len(0), len(ref))
	}
	for trial := 0; trial < 50; trial++ {
		checkNearest(t, g, ref, Point{rng.Float64() * 1000, rng.Float64() * 1000}, 8)
	}
}

func TestGridKNearestFewerThanK(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	g.Insert(0, 1, Point{10, 10})
	g.Insert(0, 2, Point{90, 90})
	got := g.KNearest(0, Point{0, 0}, 8)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].Slot != 1 || got[1].Slot != 2 {
		t.Errorf("order wrong: %+v", got)
	}
}

func TestGridKNearestEmptyAndZeroK(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	if got := g.KNearest(0, Point{0, 0}, 8); len(got) != 0 {
		t.Errorf("empty grid should return nothing, got %v", got)
	}
	g.Insert(0, 1, Point{5, 5})
	for _, k := range []int{0, -3} {
		if got := g.KNearest(0, Point{0, 0}, k); len(got) != 0 {
			t.Errorf("k=%d should return nothing, got %v", k, got)
		}
	}
	// A reused buffer comes back emptied, not with its stale contents.
	buf := g.KNearestInto(0, Point{0, 0}, 1, nil)
	if got := g.KNearestInto(0, Point{0, 0}, 0, buf); len(got) != 0 {
		t.Errorf("k=0 with a used buffer returned %v", got)
	}
}

func TestGridOutOfBoundsPointsClamped(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	g.Insert(0, 1, Point{-500, -500})
	g.Insert(0, 2, Point{600, 600})
	got := g.KNearest(0, Point{50, 50}, 2)
	if len(got) != 2 {
		t.Fatalf("want both out-of-bounds points indexed, got %d", len(got))
	}
	// A query from outside the bounds clamps the same way.
	if got := g.KNearest(0, Point{-900, 40}, 2); len(got) != 2 || got[0].Slot != 1 {
		t.Errorf("out-of-bounds query = %+v, want slot 1 first of 2", got)
	}
}

func TestGridWithin(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 50, 1)
	g.Insert(0, 1, Point{100, 100})
	g.Insert(0, 2, Point{150, 100})
	g.Insert(0, 3, Point{500, 500})
	for _, tc := range []struct {
		from   Point
		radius float64
		want   int32
	}{
		{Point{100, 100}, 60, 1},    // 1 and 2 in range: lowest slot
		{Point{160, 100}, 20, 2},    // only 2
		{Point{150, 100}, 50, 1},    // boundary distance counts
		{Point{900, 900}, 10, -1},   // nothing near
		{Point{-400, 100}, 100, -1}, // disc wholly left of the grid
		{Point{-400, 100}, 600, 1},  // disc reaching in from outside
	} {
		if got := g.FirstWithin(0, tc.from, tc.radius); got != tc.want {
			t.Errorf("FirstWithin(%v, %v) = %d, want %d", tc.from, tc.radius, got, tc.want)
		}
	}
}

func TestGridInsertExistingMoves(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	g.Insert(0, 1, Point{10, 10})
	g.Insert(0, 1, Point{90, 90})
	if g.Len(0) != 1 {
		t.Fatalf("Len = %d, want 1", g.Len(0))
	}
	p, ok := g.Position(1)
	if !ok || p != (Point{90, 90}) {
		t.Errorf("Position = %v %v", p, ok)
	}
}

func TestGridRemoveAbsent(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	g.Remove(99) // must not panic
	g.Remove(-1)
	g.Insert(0, 1, Point{1, 1})
	g.Remove(1)
	g.Remove(1)
	if g.Len(0) != 0 {
		t.Errorf("Len = %d, want 0", g.Len(0))
	}
	if _, ok := g.Position(1); ok {
		t.Error("removed slot still has a position")
	}
}

func TestGridEach(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{100, 100}), 10, 1)
	for s := int32(0); s < 10; s++ {
		g.Insert(0, s, Point{float64(s), float64(s)})
	}
	seen := make(map[int32]Point)
	g.Each(0, func(s int32, p Point) { seen[s] = p })
	if len(seen) != 10 {
		t.Errorf("Each visited %d points, want 10", len(seen))
	}
	for s, p := range seen {
		if p != (Point{float64(s), float64(s)}) {
			t.Errorf("Each reported slot %d at %v", s, p)
		}
	}
}

// Cell by cell, the grid reads as Each reads it, and every point sits in
// the cell its position maps to — after moves and removes too.
func TestGridCell(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{1000, 1000}), 100, 1)
	rng := rand.New(rand.NewSource(3))
	for s := int32(0); s < 300; s++ {
		g.Insert(0, s, Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	for s := int32(0); s < 300; s += 3 {
		g.Move(s, Point{rng.Float64() * 1000, rng.Float64() * 1000})
		g.Remove(s + 1)
	}
	var each, cells []SlotPoint
	g.Each(0, func(s int32, p Point) { each = append(each, SlotPoint{Slot: s, Pos: p}) })
	for c := 0; c < g.NumCells(); c++ {
		for _, sp := range g.Cell(0, c) {
			if got := g.CellIndex(sp.Pos); got != c {
				t.Fatalf("slot %d at %v listed in cell %d, maps to cell %d", sp.Slot, sp.Pos, c, got)
			}
			cells = append(cells, sp)
		}
	}
	if len(cells) != g.Len(0) || !reflect.DeepEqual(cells, each) {
		t.Fatalf("Cell walk read %d points, Each %d, Len %d; sequences must agree", len(cells), len(each), g.Len(0))
	}
}

// TestSlotGridKNearestIntoZeroAlloc pins the hot query path: with a
// reused buffer the search — including the scan closure handed to
// WalkRings — must stay on the stack.
func TestSlotGridKNearestIntoZeroAlloc(t *testing.T) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{4000, 4000}), 200, 1)
	rng := rand.New(rand.NewSource(1))
	for s := int32(0); s < 1000; s++ {
		g.Insert(0, s, Point{rng.Float64() * 4000, rng.Float64() * 4000})
	}
	buf := make([]SlotNeighbor, 0, 8)
	from := Point{1234, 2345}
	if avg := testing.AllocsPerRun(100, func() { buf = g.KNearestInto(0, from, 8, buf) }); avg != 0 {
		t.Fatalf("KNearestInto allocates %.1f times per query, want 0", avg)
	}
}

func BenchmarkGridKNearest(b *testing.B) {
	g := NewSlotGrid(NewRect(Point{0, 0}, Point{4000, 4000}), 200, 1)
	rng := rand.New(rand.NewSource(1))
	for s := int32(0); s < 1000; s++ {
		g.Insert(0, s, Point{rng.Float64() * 4000, rng.Float64() * 4000})
	}
	var buf []SlotNeighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.KNearestInto(0, Point{rng.Float64() * 4000, rng.Float64() * 4000}, 8, buf)
	}
}
