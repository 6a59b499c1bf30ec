package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/road"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/surge"
)

// TestOpenStreetCab runs the two-service scenario for one rush hour and
// checks the coupling the scenario exists to demonstrate: both fleets
// move passengers over the shared streets, the comparison client gets
// dual quotes, and the combined load pushes some edge past free flow.
func TestOpenStreetCab(t *testing.T) {
	opts := OpenStreetCabOptions{Seed: 42, Hours: 1, Workers: 4}
	res := RunOpenStreetCab(opts)
	if res.Uber.Pickups == 0 || res.Uber.Dropoffs == 0 {
		t.Fatalf("uber fleet idle: %+v", res.Uber)
	}
	if res.Taxi.Pickups == 0 || res.Taxi.Dropoffs == 0 {
		t.Fatalf("taxi fleet idle: %+v", res.Taxi)
	}
	if res.Queries == 0 {
		t.Fatal("comparison client never got dual quotes")
	}
	if res.Uber.Wins+res.Taxi.Wins+res.Ties != res.Queries {
		t.Fatalf("wins %d+%d + ties %d != queries %d", res.Uber.Wins, res.Taxi.Wins, res.Ties, res.Queries)
	}
	if res.PeakFactor <= 1 {
		t.Fatal("two fleets of rush-hour trips left every edge at free flow")
	}
	var sb strings.Builder
	WriteOpenStreetCab(&sb, opts, res)
	out := sb.String()
	for _, want := range []string{"uber fleet: pickups=", "taxi fleet: pickups=", "comparison: queries="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestOpenStreetCabPeakFactor is the regression test for the PeakFactor
// read: congestion factors decay toward 1 on every commit, so sampling
// the table once after the final commit reports the decayed end-of-run
// state, not the worst factor any edge actually reached. The mirror
// below reruns the scenario's exact deterministic backend (the probe
// queries are reads and touch no world state) tracking the running max
// itself, then checks the runner reported that max — and that the max
// genuinely exceeds the end state, so the old end-of-run read cannot
// pass by luck.
func TestOpenStreetCabPeakFactor(t *testing.T) {
	// 9 hours (17:00→02:00): the evening rush saturates edges at the
	// factor cap, then the overnight tail decays them — exactly the
	// spike-then-quiet shape the end-of-run read misreports.
	opts := OpenStreetCabOptions{Seed: 42, Hours: 9, Workers: 4}

	profile := sim.Manhattan()
	profile.RoadNetwork = true
	taxiProfile := profile.TaxiCity()
	net := road.ForProfile(profile.Name, profile.Region)
	const start = 17 * 3600
	uberW := sim.NewWorld(sim.Config{
		Profile: profile, Seed: opts.Seed, StartTime: start,
		Workers: opts.Workers, Road: net,
	})
	taxiW := sim.NewWorld(sim.Config{
		Profile: taxiProfile, Seed: opts.Seed + 1, StartTime: start,
		Workers: opts.Workers, Road: net,
	})
	uberSvc := api.NewService(uberW, surge.New(uberW, surge.Config{Params: profile.Surge, Seed: opts.Seed}))
	taxiSvc := api.NewService(taxiW, surge.New(taxiW, surge.Config{Params: taxiProfile.Surge, Seed: opts.Seed + 1}))
	trueMax := 1.0
	for uberSvc.Now() < start+int64(opts.Hours)*3600 {
		uberSvc.Step()
		taxiSvc.Step()
		net.Cong.Commit()
		for _, f := range net.Cong.Factors() {
			if f > trueMax {
				trueMax = f
			}
		}
	}
	endMax := 1.0
	for _, f := range net.Cong.Factors() {
		if f > endMax {
			endMax = f
		}
	}
	if trueMax <= endMax {
		t.Fatalf("scenario not discriminating: running max %.4f did not exceed end state %.4f", trueMax, endMax)
	}

	res := RunOpenStreetCab(opts)
	if math.Abs(res.PeakFactor-trueMax) > 1e-9 {
		t.Fatalf("PeakFactor = %.4f, want running max %.4f (end-of-run table max was %.4f)",
			res.PeakFactor, trueMax, endMax)
	}
}

// fakeQuoteService is a core.Service stub that always quotes one fixed
// price and EWT for uberX.
type fakeQuoteService struct {
	usd float64
	ewt float64
}

func (f *fakeQuoteService) PingInto(_ string, _ geo.LatLng, dst *core.PingResponse) error {
	*dst = core.PingResponse{}
	return nil
}

func (f *fakeQuoteService) EstimatePrice(string, geo.LatLng) ([]core.PriceEstimate, error) {
	return []core.PriceEstimate{{
		TypeName: core.UberX.String(), Surge: 1,
		LowUSD: f.usd * 0.8, HighUSD: f.usd * 1.2, Currency: "USD",
	}}, nil
}

func (f *fakeQuoteService) EstimateTime(string, geo.LatLng) ([]core.TimeEstimate, error) {
	return []core.TimeEstimate{{TypeName: core.UberX.String(), EWTSeconds: f.ewt}}, nil
}

func (f *fakeQuoteService) Now() int64 { return 0 }

// TestOpenStreetCabTies is the regression test for the scoreboard's tie
// handling: strategy's Cheapest index resolves exact-price ties to the
// earlier entry, and the old scoreboard credited that entry a win. Ties
// must land in the Ties column instead — and genuine wins must still be
// credited to whichever service earned them.
func TestOpenStreetCabTies(t *testing.T) {
	compare := func(uberUSD, taxiUSD float64) *strategy.Comparison {
		pc := &strategy.PriceComparison{Services: []strategy.ServiceEntry{
			{Name: "uber", Svc: &fakeQuoteService{usd: uberUSD, ewt: 120}, ClientID: "c", Product: core.UberX},
			{Name: "taxi", Svc: &fakeQuoteService{usd: taxiUSD, ewt: 240}, ClientID: "c", Product: core.UberX},
		}}
		c, err := pc.Compare(geo.LatLng{})
		if err != nil {
			t.Fatalf("Compare: %v", err)
		}
		return c
	}

	var res OpenStreetCabResult
	res.scoreRound(compare(20, 20)) // exact tie: first-listed must NOT win
	res.scoreRound(compare(18, 20)) // uber genuinely cheaper
	res.scoreRound(compare(22, 20)) // taxi genuinely cheaper
	if res.Ties != 1 {
		t.Errorf("Ties = %d, want 1 (tie credited as a win?)", res.Ties)
	}
	if res.Uber.Wins != 1 || res.Taxi.Wins != 1 {
		t.Errorf("wins = uber %d / taxi %d, want 1 / 1", res.Uber.Wins, res.Taxi.Wins)
	}
}
