package surgemap

import (
	"testing"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/sim"
)

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(1, 2)
	uf.union(4, 5)
	if uf.find(0) != uf.find(2) {
		t.Error("0 and 2 should be joined")
	}
	if uf.find(3) == uf.find(0) {
		t.Error("3 should be alone")
	}
	if uf.find(4) != uf.find(5) {
		t.Error("4 and 5 should be joined")
	}
	uf.union(0, 0) // self-union is a no-op
}

func TestSameSeries(t *testing.T) {
	if !sameSeries([]float64{1, 1.5}, []float64{1, 1.5}) {
		t.Error("identical series should match")
	}
	if sameSeries([]float64{1, 1.5}, []float64{1, 1.6}) {
		t.Error("differing series should not match")
	}
	if sameSeries([]float64{1}, []float64{1, 1}) {
		t.Error("length mismatch should not match")
	}
}

func TestInferRecoversTrueAreas(t *testing.T) {
	if testing.Short() {
		t.Skip("probing campaign is slow")
	}
	// SF surges most of the time, so a modest probe window separates the
	// areas.
	profile := sim.SanFrancisco()
	svc := api.Scenario{City: profile.Name, Seed: 17}.Build()
	prober, err := NewProber(svc, svc, svc.World().Projection(), profile.MeasureRect, 350)
	if err != nil {
		t.Fatal(err)
	}
	if prober.NumPoints() == 0 {
		t.Fatal("no lattice points")
	}

	// Sample mid-interval for 8 simulated hours (96 intervals).
	for i := 0; i < 96; i++ {
		next := svc.Now()/300*300 + 300 + 150
		svc.RunUntil(next)
		if err := prober.SampleOnce(); err != nil {
			t.Fatal(err)
		}
	}
	m := prober.Infer()
	if m.NumClusters < 2 {
		t.Fatalf("clusters = %d; surge areas were not separated", m.NumClusters)
	}
	areas := profile.SurgeAreas()
	acc := m.Accuracy(func(p geo.Point) int { return sim.AreaOf(areas, p) })
	if acc < 0.9 {
		t.Errorf("recovery accuracy = %.3f, want ≥ 0.9", acc)
	}
	// The paper found 4 areas per city; with enough surge activity the
	// partition resolves to exactly the true count.
	if m.NumClusters > 8 {
		t.Errorf("clusters = %d, want close to 4", m.NumClusters)
	}
}

func TestASCIIRendering(t *testing.T) {
	m := &Map{
		Cols: 3, Rows: 2,
		Cluster:     []int{0, 0, 1, 2, 2, 1}, // row 0 south, row 1 north
		NumClusters: 3,
		Points:      make([]geo.Point, 6),
	}
	got := m.ASCII()
	// North (row 1) first: "221", then south "001".
	want := "221\n001\n"
	if got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
	if (&Map{}).ASCII() != "" {
		t.Error("empty map should render empty")
	}
	// Labels beyond the alphabet render as '?'.
	big := &Map{Cols: 1, Rows: 1, Cluster: []int{99}, NumClusters: 100, Points: make([]geo.Point, 1)}
	if big.ASCII() != "?\n" {
		t.Errorf("overflow label = %q", big.ASCII())
	}
}

func TestAccuracyDegenerate(t *testing.T) {
	m := &Map{}
	if got := m.Accuracy(func(geo.Point) int { return 0 }); got != 0 {
		t.Errorf("empty map accuracy = %v", got)
	}
	m = &Map{
		Points:      []geo.Point{{X: 0}, {X: 1}},
		Cluster:     []int{0, 0},
		NumClusters: 1,
	}
	// Both points in one cluster, same truth: perfect.
	if got := m.Accuracy(func(geo.Point) int { return 7 }); got != 1 {
		t.Errorf("accuracy = %v, want 1", got)
	}
	// Truth splits the cluster: majority wins, accuracy 0.5.
	if got := m.Accuracy(func(p geo.Point) int { return int(p.X) }); got != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", got)
	}
}

// TestMajorityTieLowestLabel: a cluster whose true labels tie 2–2 takes
// the lower label, whatever order the votes map yields them in.
func TestMajorityTieLowestLabel(t *testing.T) {
	m := &Map{
		Points:      make([]geo.Point, 7),
		Cluster:     []int{0, 0, 0, 0, 1, 1, 1},
		NumClusters: 3, // cluster 2 is empty
	}
	trueOf := []int{5, 2, 5, 2, 9, 3, 9}
	for i := 0; i < 5000; i++ {
		if got := m.majority(trueOf); got[0] != 2 || got[1] != 9 || got[2] != -1 {
			t.Fatalf("call %d: majorities %v, want [2 9 -1]", i, got)
		}
	}
}
