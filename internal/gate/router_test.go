package gate

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
)

// regionSpec builds a RegionSpec from a city profile, exactly as
// cmd/ubergate does.
func regionSpec(p *sim.CityProfile) RegionSpec {
	return RegionSpec{Name: p.Name, Origin: p.Origin, Rect: p.Region}
}

// testShard builds an eligible shard without a gateway (router-only
// tests): health bits set directly, metrics on a throwaway registry.
func testShard(name, region string) *Shard {
	reg := obs.NewRegistry()
	s := &Shard{
		ShardSpec: ShardSpec{Name: name, Region: region, BaseURL: "http://" + name},
		breaker:   chaos.NewBreaker(chaos.BreakerConfig{Threshold: 3}),
		mUp:       reg.Gauge("gate_shard_up"),
		mReady:    reg.Gauge("gate_shard_ready"),
		mDown:     reg.Counter("gate_shard_down_total"),
	}
	s.setAlive(true)
	s.setReady(true)
	return s
}

// grid yields locations spread across a city's region.
func grid(p *sim.CityProfile, n int) []geo.LatLng {
	proj := geo.NewProjection(p.Origin)
	var locs []geo.LatLng
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			locs = append(locs, proj.ToLatLng(geo.Point{
				X: p.Region.Min.X + p.Region.Width()*(float64(i)+0.5)/float64(n),
				Y: p.Region.Min.Y + p.Region.Height()*(float64(j)+0.5)/float64(n),
			}))
		}
	}
	return locs
}

func TestRouterDeterministicAcrossInstances(t *testing.T) {
	mh := sim.Manhattan()
	build := func() *Router {
		shards := []*Shard{
			testShard("manhattan-0", mh.Name),
			testShard("manhattan-1", mh.Name),
			testShard("manhattan-2", mh.Name),
		}
		rt, err := NewRouter([]RegionSpec{regionSpec(mh)}, shards)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	// Two independent routers (fresh shard structs, as after a gateway
	// restart) must agree on every placement: the score is a pure function
	// of shard name and GPS cell.
	a, b := build(), build()
	for _, loc := range grid(mh, 12) {
		ra, erra := a.Pick(loc)
		rb, errb := b.Pick(loc)
		if erra != nil || errb != nil {
			t.Fatalf("pick at %v: %v / %v", loc, erra, errb)
		}
		if ra.Shard.Name != rb.Shard.Name {
			t.Fatalf("restart changed placement at %v: %s vs %s", loc, ra.Shard.Name, rb.Shard.Name)
		}
		if ra.Rerouted() {
			t.Fatalf("healthy fleet rerouted at %v", loc)
		}
	}
}

func TestRouterSpreadsCells(t *testing.T) {
	mh := sim.Manhattan()
	shards := []*Shard{
		testShard("manhattan-0", mh.Name),
		testShard("manhattan-1", mh.Name),
		testShard("manhattan-2", mh.Name),
	}
	rt, err := NewRouter([]RegionSpec{regionSpec(mh)}, shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	locs := grid(mh, 16)
	for _, loc := range locs {
		r, err := rt.Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		counts[r.Shard.Name]++
	}
	// Rendezvous over 3 replicas should give each a meaningful share; an
	// off-by-one in the cell key or hash would funnel everything to one.
	for _, s := range shards {
		if got := counts[s.Name]; got < len(locs)/10 {
			t.Errorf("shard %s owns %d/%d cells, want >= %d", s.Name, got, len(locs), len(locs)/10)
		}
	}
}

func TestRouterMinimalDisruptionOnShardDeath(t *testing.T) {
	mh := sim.Manhattan()
	shards := []*Shard{
		testShard("manhattan-0", mh.Name),
		testShard("manhattan-1", mh.Name),
		testShard("manhattan-2", mh.Name),
	}
	rt, err := NewRouter([]RegionSpec{regionSpec(mh)}, shards)
	if err != nil {
		t.Fatal(err)
	}
	locs := grid(mh, 12)
	before := make([]string, len(locs))
	for i, loc := range locs {
		r, err := rt.Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r.Shard.Name
	}
	shards[1].setReady(false) // manhattan-1 drains
	moved := 0
	for i, loc := range locs {
		r, err := rt.Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		if before[i] == "manhattan-1" {
			moved++
			if !r.Rerouted() {
				t.Errorf("cell that lost its shard not marked rerouted at %v", loc)
			}
			if r.Shard.Name == "manhattan-1" {
				t.Errorf("picked the drained shard at %v", loc)
			}
		} else if r.Shard.Name != before[i] {
			t.Errorf("cell at %v moved %s -> %s though its shard survived", loc, before[i], r.Shard.Name)
		}
	}
	if moved == 0 {
		t.Fatal("test is vacuous: manhattan-1 owned no cells")
	}
	// Recovery moves exactly those cells back.
	shards[1].setReady(true)
	for i, loc := range locs {
		r, err := rt.Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Shard.Name != before[i] {
			t.Errorf("cell at %v did not return home after recovery: %s vs %s", loc, r.Shard.Name, before[i])
		}
	}
}

func TestRouterExcludeRoutesElsewhere(t *testing.T) {
	mh := sim.Manhattan()
	shards := []*Shard{testShard("manhattan-0", mh.Name), testShard("manhattan-1", mh.Name)}
	rt, err := NewRouter([]RegionSpec{regionSpec(mh)}, shards)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Pick(mh.Origin)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.Pick(mh.Origin, r.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Shard == r.Shard {
		t.Fatalf("exclusion ignored: got %s twice", r.Shard.Name)
	}
	if !r2.Rerouted() {
		t.Error("excluded pick not marked rerouted")
	}
}

func TestRouterRegionDown(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	sfShard := testShard("sf-0", sf.Name)
	mhShard := testShard("manhattan-0", mh.Name)
	rt, err := NewRouter([]RegionSpec{regionSpec(mh), regionSpec(sf)}, []*Shard{mhShard, sfShard})
	if err != nil {
		t.Fatal(err)
	}

	// A region with no eligible shard is down, and the error names it:
	// the healthy Manhattan shard is never offered for SF.
	sfShard.setAlive(false)
	r, err := rt.Pick(sf.Origin)
	var re *RouteError
	if !errors.As(err, &re) || re.Region != sf.Name || r.Shard != nil {
		t.Fatalf("want RouteError for %s and no shard, got %+v, %v", sf.Name, r, err)
	}

	// Outside every region.
	if _, err := rt.Pick(geo.LatLng{}); err != ErrOutOfRegion {
		t.Fatalf("want ErrOutOfRegion, got %v", err)
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	mh := sim.Manhattan()
	cases := []struct {
		name    string
		regions []RegionSpec
		shards  []*Shard
	}{
		{"dup region", []RegionSpec{regionSpec(mh), regionSpec(mh)}, nil},
		{"unknown shard region", []RegionSpec{regionSpec(mh)}, []*Shard{testShard("s", "nope")}},
	}
	for _, tc := range cases {
		if _, err := NewRouter(tc.regions, tc.shards); err == nil {
			t.Errorf("%s: NewRouter accepted invalid config", tc.name)
		}
	}
}

func TestScoreIsStable(t *testing.T) {
	// Pin a few hash values: if the routing function ever changes, every
	// deployed gateway would re-shard the world on upgrade — that must be a
	// deliberate, reviewed decision, not an accident.
	got := fmt.Sprintf("%x %x %x", score("sf-0", 0, 0), score("sf-0", 1, 0), score("manhattan-1", 0, 0))
	const want = "3ca64d61becc9f14 edce0b6951f2b907 eb774831330809bc"
	if got != want {
		t.Fatalf("routing hash changed: got %s, want %s", got, want)
	}
}
