// The OpenStreetCab scenario (§6 closing argument): two ride services —
// the Uber backend and an app-hailed taxi fleet — operate over the SAME
// street network, so one fleet's trips congest the other's routes, while
// a price-comparison client queries both public APIs and books whichever
// is cheaper. This runner wires two worlds onto one road.Network (loads
// tallied by both, committed once per tick by the harness), fronts each
// with the full API service, and drives a strategy.PriceComparison
// client at fixed probe points every five minutes.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/road"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/surge"
)

// OpenStreetCabOptions configures the two-service run. The two fleets are
// the same size (midtown reality is nearer ten taxis per Uber).
type OpenStreetCabOptions struct {
	Seed    int64
	Hours   int // simulated hours starting 17:00 (default 1)
	Workers int
}

// FleetResult is one service's side of the scoreboard.
type FleetResult struct {
	Name       string
	Pickups    int64
	Dropoffs   int64
	FareVolume float64
	Wins       int // comparison queries this service won on price
}

// OpenStreetCabResult is the outcome of a two-service run.
type OpenStreetCabResult struct {
	Uber, Taxi FleetResult
	Queries    int     // comparison rounds with both services quoting
	Ties       int     // rounds both services quoted the same price
	MeanSaving float64 // mean USD saved by booking the cheaper quote
	PeakFactor float64 // worst congestion factor reached on any edge
}

// scoreRound credits one comparison round: an exact price tie goes to
// the Ties column (the first-listed service didn't actually win it),
// otherwise the cheaper service's Wins.
func (res *OpenStreetCabResult) scoreRound(c *strategy.Comparison) {
	if c.CheapestTied() {
		res.Ties++
		return
	}
	switch c.CheapestQuote().Service {
	case "uber":
		res.Uber.Wins++
	case "taxi":
		res.Taxi.Wins++
	}
}

// RunOpenStreetCab executes the scenario: shared streets, two fleets,
// one comparison shopper.
func RunOpenStreetCab(opts OpenStreetCabOptions) *OpenStreetCabResult {
	if opts.Hours <= 0 {
		opts.Hours = 1
	}
	profile := sim.Manhattan()
	profile.RoadNetwork = true
	taxiProfile := profile.TaxiCity()
	net := road.ForProfile(profile.Name, profile.Region)

	const start = 17 * 3600 // evening rush: both fleets busy from tick one
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
	uberSvc.Register("opencab")
	taxiSvc.Register("opencab")

	pc := &strategy.PriceComparison{Services: []strategy.ServiceEntry{
		{Name: "uber", Svc: uberSvc, ClientID: "opencab", Product: core.UberX},
		{Name: "taxi", Svc: taxiSvc, ClientID: "opencab", Product: core.UberT},
	}}

	// Probe pickups around midtown, inside the measurement rect.
	proj := uberW.Projection()
	probes := []geo.Point{{}, {X: -700, Y: 500}, {X: 900, Y: -600}}

	res := &OpenStreetCabResult{
		Uber: FleetResult{Name: "uber"},
		Taxi: FleetResult{Name: "taxi"},
	}
	var savingSum float64
	res.PeakFactor = 1
	end := int64(start + opts.Hours*3600)
	for uberSvc.Now() < end {
		uberSvc.Step()
		taxiSvc.Step()
		// Both worlds tallied their edge loads; one commit folds the
		// combined load into the next tick's congestion factors.
		net.Cong.Commit()
		// Track the peak congestion as it happens: factors decay toward 1
		// every commit, so the end-of-run table remembers nothing about a
		// rush-hour spike followed by a quiet tail.
		for _, f := range net.Cong.Factors() {
			if f > res.PeakFactor {
				res.PeakFactor = f
			}
		}
		if uberSvc.Now()%300 != 0 {
			continue
		}
		for _, p := range probes {
			c, err := pc.Compare(proj.ToLatLng(p))
			if err != nil || len(c.Quotes) < 2 {
				continue
			}
			res.Queries++
			savingSum += c.Savings()
			res.scoreRound(c)
		}
	}
	if res.Queries > 0 {
		res.MeanSaving = savingSum / float64(res.Queries)
	}
	res.Uber.Pickups, res.Uber.Dropoffs, res.Uber.FareVolume = uberW.TotalPickups, uberW.TotalDropoffs, uberW.FareVolume
	res.Taxi.Pickups, res.Taxi.Dropoffs, res.Taxi.FareVolume = taxiW.TotalPickups, taxiW.TotalDropoffs, taxiW.FareVolume
	return res
}

// WriteOpenStreetCab prints the scoreboard in grep-friendly lines (the
// CI road-smoke step asserts on them).
func WriteOpenStreetCab(w io.Writer, opts OpenStreetCabOptions, res *OpenStreetCabResult) {
	fmt.Fprintf(w, "openstreetcab: hours=%d seed=%d taxi-share=1\n", opts.Hours, opts.Seed)
	for _, fl := range []*FleetResult{&res.Uber, &res.Taxi} {
		fmt.Fprintf(w, "%s fleet: pickups=%d dropoffs=%d fares=$%.2f wins=%d\n",
			fl.Name, fl.Pickups, fl.Dropoffs, fl.FareVolume, fl.Wins)
	}
	fmt.Fprintf(w, "comparison: queries=%d ties=%d mean-saving=$%.2f peak-congestion=%.2fx\n",
		res.Queries, res.Ties, res.MeanSaving, res.PeakFactor)
}
