package strategy

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/sim"
)

func TestNearestOnSegment(t *testing.T) {
	a, b := geo.Point{X: 0, Y: 0}, geo.Point{X: 10, Y: 0}
	if got := nearestOnSegment(a, b, geo.Point{X: 5, Y: 7}); got != (geo.Point{X: 5, Y: 0}) {
		t.Errorf("projection = %v", got)
	}
	if got := nearestOnSegment(a, b, geo.Point{X: -3, Y: 2}); got != a {
		t.Errorf("clamp to a: %v", got)
	}
	if got := nearestOnSegment(a, b, geo.Point{X: 30, Y: 2}); got != b {
		t.Errorf("clamp to b: %v", got)
	}
	if got := nearestOnSegment(a, a, geo.Point{X: 3, Y: 3}); got != a {
		t.Errorf("degenerate segment: %v", got)
	}
}

func TestNearestOnPolygon(t *testing.T) {
	pg := geo.RectPolygon(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 100, Y: 100}))
	got := nearestOnPolygon(pg, geo.Point{X: -10, Y: 50})
	if got != (geo.Point{X: 0, Y: 50}) {
		t.Errorf("nearest = %v, want (0,50)", got)
	}
	got = nearestOnPolygon(pg, geo.Point{X: 150, Y: 150})
	if got != (geo.Point{X: 100, Y: 100}) {
		t.Errorf("nearest = %v, want corner", got)
	}
}

func TestEntryPointInsideArea(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 3}.Build()
	svc.Register("walker")
	ad := NewAdvisor(svc, "walker", profile)
	pos := ad.Areas[0].Centroid()
	for a := 1; a < len(ad.Areas); a++ {
		ep := ad.entryPoint(pos, a)
		if !ad.Areas[a].Contains(ep) {
			t.Errorf("entry point %v not inside area %d", ep, a)
		}
	}
	// A position already inside the target area maps to itself.
	if got := ad.entryPoint(pos, 0); got != pos {
		t.Errorf("entryPoint inside own area = %v, want %v", got, pos)
	}
}

func TestAdviseShape(t *testing.T) {
	profile := sim.SanFrancisco()
	svc := api.Scenario{City: profile.Name, Seed: 5}.Build()
	svc.Register("walker")
	svc.RunUntil(8 * 3600)
	ad := NewAdvisor(svc, "walker", profile)

	pos := geo.Point{X: 100, Y: 100} // near the area crossing point
	adv, err := ad.Advise(pos)
	if err != nil {
		t.Fatal(err)
	}
	if adv.CurrentArea < 0 {
		t.Error("current area unresolved")
	}
	if adv.CurrentSurge < 1 {
		t.Errorf("current surge = %v", adv.CurrentSurge)
	}
	if len(adv.Options) != 3 {
		t.Fatalf("options = %d, want 3 (other areas)", len(adv.Options))
	}
	for _, o := range adv.Options {
		if o.WalkSeconds < 0 || o.EWTSeconds <= 0 || o.Surge < 1 {
			t.Errorf("bad option %+v", o)
		}
		if o.Feasible && (o.Surge >= adv.CurrentSurge || o.WalkSeconds > o.EWTSeconds) {
			t.Errorf("option marked feasible but is not: %+v", o)
		}
	}
	if adv.Best != nil {
		if !adv.Best.Feasible {
			t.Error("Best must be feasible")
		}
		if adv.Savings() <= 0 {
			t.Errorf("Savings = %v, want > 0 when Best exists", adv.Savings())
		}
	} else if adv.Savings() != 0 {
		t.Errorf("Savings = %v without Best", adv.Savings())
	}
}

func TestStrategyFindsSavingsUnderDifferentialSurge(t *testing.T) {
	if testing.Short() {
		t.Skip("long scan")
	}
	// Scan a day of SF from a boundary-adjacent position; with areas
	// surging independently, the strategy must find savings at least
	// occasionally, and never recommend an infeasible option.
	profile := sim.SanFrancisco()
	svc := api.Scenario{City: profile.Name, Seed: 7}.Build()
	svc.Register("walker")
	ad := NewAdvisor(svc, "walker", profile)
	// Near SF's area cross point (the UCSF corner: SplitX/SplitY place it
	// at roughly (-770, -980) in the measurement rect).
	pos := geo.Point{X: -700, Y: -900}

	feasible, total := 0, 0
	var totalSavings float64
	for svc.Now() < 20*3600 {
		svc.RunUntil(svc.Now()/300*300 + 300 + 150)
		adv, err := ad.Advise(pos)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if adv.Best != nil {
			feasible++
			totalSavings += adv.Savings()
			if adv.Best.Surge >= adv.CurrentSurge {
				t.Fatalf("recommended a worse price: %+v vs %v", adv.Best, adv.CurrentSurge)
			}
		}
	}
	if total == 0 {
		t.Fatal("no scans")
	}
	frac := float64(feasible) / float64(total)
	t.Logf("feasible %d/%d (%.1f%%), mean savings %.2f", feasible, total, frac*100,
		totalSavings/math.Max(1, float64(feasible)))
	if feasible == 0 {
		t.Error("strategy never found a cheaper adjacent area in 20 SF hours")
	}
	// Sanity: this should be an occasional win, not a constant one.
	if frac > 0.9 {
		t.Errorf("feasible fraction %.2f implausibly high", frac)
	}
}
