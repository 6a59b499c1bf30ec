package client

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
)

func TestGridLayoutCoverage(t *testing.T) {
	rect := geo.NewRect(geo.Point{X: -1000, Y: -800}, geo.Point{X: 1000, Y: 800})
	pts := GridLayout(rect, 280, NumClients)
	if len(pts) != NumClients {
		t.Fatalf("got %d points, want %d", len(pts), NumClients)
	}
	for i, p := range pts {
		if !rect.Contains(p) {
			t.Errorf("point %d (%v) outside rect", i, p)
		}
	}
	// Distinct positions, spaced at least `spacing` apart on the grid.
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := geo.Dist(pts[i], pts[j]); d < 280-1e-9 {
				t.Fatalf("points %d and %d only %.0f m apart", i, j, d)
			}
		}
	}
}

func TestGridLayoutDegenerate(t *testing.T) {
	rect := geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})
	if GridLayout(rect, 100, 0) != nil {
		t.Error("n=0 should return nil")
	}
	if GridLayout(rect, 0, 5) != nil {
		t.Error("spacing=0 should return nil")
	}
	// Tiny rect still yields points (clamped grid).
	pts := GridLayout(rect, 500, 4)
	if len(pts) == 0 {
		t.Error("tiny rect should still yield at least one point")
	}
}

// countingSink records rounds and observations for campaign tests.
type countingSink struct {
	observations int
	rounds       int
	lastTime     int64
}

func (c *countingSink) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	c.observations++
}
func (c *countingSink) EndRound(now int64) {
	c.rounds++
	c.lastTime = now
}

func newCampaignBackend(t testing.TB) (*api.Service, *Campaign) {
	t.Helper()
	svc := api.Scenario{City: "manhattan", Seed: 5}.Build()
	p := svc.World().Profile()
	pts := GridLayout(p.MeasureRect, p.ClientSpacing, NumClients)
	camp := NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	return svc, camp
}

func TestCampaignRoundsAndSinks(t *testing.T) {
	svc, camp := newCampaignBackend(t)
	sink := &countingSink{}
	camp.AddSink(sink)
	camp.RunSim(svc, 300)
	if camp.Rounds != 60 {
		t.Errorf("Rounds = %d, want 60", camp.Rounds)
	}
	if sink.rounds != 60 {
		t.Errorf("sink rounds = %d", sink.rounds)
	}
	if sink.observations != 60*NumClients {
		t.Errorf("observations = %d, want %d", sink.observations, 60*NumClients)
	}
	if sink.lastTime != 300 {
		t.Errorf("lastTime = %d, want 300", sink.lastTime)
	}
	if camp.Errors != 0 {
		t.Errorf("Errors = %d", camp.Errors)
	}
}

func TestCampaignClientIDsAndLocations(t *testing.T) {
	svc, camp := newCampaignBackend(t)
	if len(camp.Clients) != NumClients {
		t.Fatalf("clients = %d", len(camp.Clients))
	}
	if camp.Clients[0].ID != "probe-00" || camp.Clients[42].ID != "probe-42" {
		t.Errorf("unexpected ids: %s, %s", camp.Clients[0].ID, camp.Clients[42].ID)
	}
	// Wire coordinates must round-trip to the plane positions.
	proj := svc.World().Projection()
	for _, cl := range camp.Clients {
		back := proj.ToPlane(cl.Loc)
		if geo.Dist(back, cl.Pos) > 0.1 {
			t.Fatalf("client %s: wire/plane mismatch %v vs %v", cl.ID, back, cl.Pos)
		}
	}
}

func TestCheckDeterminism(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 9}.Build()
	loc := svc.World().Projection().ToLatLng(geo.Point{X: 50, Y: 50})
	ok, err := CheckDeterminism(svc, svc, svc, loc, 10, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("co-located clients observed different data without jitter")
	}
}

func TestCheckDeterminismSeesJitterDivergence(t *testing.T) {
	// With the April bug enabled, co-located clients eventually diverge;
	// run long enough that a jitter event almost surely appears during a
	// surge-transition interval.
	svc := api.Scenario{City: "sf", Seed: 11, Jitter: true}.Build()
	svc.RunUntil(7 * 3600) // reach a surging morning
	loc := svc.World().Projection().ToLatLng(geo.Point{X: 1000, Y: 1000})
	ok, err := CheckDeterminism(svc, svc, svc, loc, 20, 4*3600)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("expected jitter to break response determinism in April mode")
	}
}

func TestMeasureVisibilityRadius(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 13}.Build()
	svc.RunUntil(12 * 3600) // noon: dense supply, small radius
	w := svc.World()
	res, err := MeasureVisibilityRadius(svc, svc, svc, w.Projection(), geo.Point{}, core.UberX)
	if err != nil {
		t.Fatal(err)
	}
	if res.Radius <= 0 {
		t.Fatalf("radius = %v, want positive", res.Radius)
	}
	// The paper measured ~247 m in midtown; with our densities anything
	// in 80-900 m is a sane visibility radius.
	if res.Radius < 80 || res.Radius > 900 {
		t.Errorf("radius = %.0f m, outside plausible range", res.Radius)
	}
	if res.Steps == 0 {
		t.Error("experiment ended before any walking")
	}
}

func TestVisibilityRadiusLargerAtNight(t *testing.T) {
	day := api.Scenario{City: "manhattan", Seed: 15}.Build()
	day.RunUntil(13 * 3600)
	night := api.Scenario{City: "manhattan", Seed: 15}.Build()
	night.RunUntil(4 * 3600)

	resDay, err := MeasureVisibilityRadius(day, day, day, day.World().Projection(), geo.Point{}, core.UberX)
	if err != nil {
		t.Fatal(err)
	}
	resNight, err := MeasureVisibilityRadius(night, night, night, night.World().Projection(), geo.Point{}, core.UberX)
	if err != nil {
		t.Fatal(err)
	}
	if resNight.Radius <= resDay.Radius {
		t.Errorf("night radius (%.0f) should exceed day radius (%.0f): fewer cars at 4am",
			resNight.Radius, resDay.Radius)
	}
}
