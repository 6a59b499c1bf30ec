package experiments

import (
	"math"

	"repro/internal/api"
	"repro/internal/attack"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/surge"
)

// The experiments in this file go beyond the paper's evaluation: they
// exercise the §8 discussion points the authors could only speculate
// about, since they did not control the system. We do.

// ExtCollusionResult is the driver-collusion experiment (§8's "vulnerable
// to exploitation ... by colluding groups of drivers").
type ExtCollusionResult struct {
	City     string
	Complied int
	PeakLift float64
	Induced  bool
	// FareLift is the extra passenger spend in the area after the ring
	// returns, versus the clean run — the collusion payoff.
	FareLift float64
}

// ExtCollusion measures how much surge a ring of colluding drivers can
// induce by logging off together during evening rush — when the market is
// tight enough for missing supply to bite. (Off-peak attacks fizzle: the
// slack Uber keeps in car supply absorbs the whole ring, which is itself
// a finding.)
func ExtCollusion(sc api.Scenario) ExtCollusionResult {
	res := attack.Run(attack.Config{
		Scenario:   sc,
		Area:       1,
		Drivers:    200, // the whole area's idle UberX fleet colludes
		At:         17*3600 + 1800,
		Duration:   1800, // dark for 30 minutes...
		ObserveFor: 5400, // ...then an hour of harvesting
	})
	return ExtCollusionResult{
		City:     sc.City,
		Complied: res.Complied,
		PeakLift: res.PeakLift(),
		Induced:  res.Induced(),
		FareLift: res.FareLift(),
	}
}

// ExtWaitOutResult evaluates the §5.2 "wait out the surge" heuristic on a
// run's API streams.
type ExtWaitOutResult struct {
	City string
	// Wait5 is the outcome of waiting one surge interval from onset.
	Wait5 strategy.WaitOutResult
	// Wait15 is the outcome of waiting three intervals.
	Wait15 strategy.WaitOutResult
}

// ExtWaitOut pools every API probe's change log of a run.
func ExtWaitOut(r *CityRun) ExtWaitOutResult {
	out := ExtWaitOutResult{City: r.Profile.Name}
	agg := func(wait int64) strategy.WaitOutResult {
		var total strategy.WaitOutResult
		var saving, onset, after float64
		for _, p := range r.APIProbes {
			res := strategy.WaitOut(p.Log, 1, 0, r.End, wait)
			total.Cases += res.Cases
			total.Improved += res.Improved
			total.Cleared += res.Cleared
			saving += res.MeanSaving * float64(res.Cases)
			onset += res.MeanOnset * float64(res.Cases)
			after += res.MeanAfter * float64(res.Cases)
		}
		if total.Cases > 0 {
			total.MeanSaving = saving / float64(total.Cases)
			total.MeanOnset = onset / float64(total.Cases)
			total.MeanAfter = after / float64(total.Cases)
		}
		return total
	}
	out.Wait5 = agg(300)
	out.Wait15 = agg(900)
	return out
}

// ExtMarketResult compares Uber's surge market against the Sidecar-style
// driver-set market (§8's proposed alternative) on identical demand.
type ExtMarketResult struct {
	City               string
	SurgeMeanPrice     float64
	SurgePriceStd      float64
	SurgeUnmetFrac     float64
	SurgePricedOut     float64
	DriverSetMeanPrice float64
	DriverSetPriceStd  float64
	DriverSetUnmetFrac float64
	DriverSetPricedOut float64
	SurgeMeanEWT       float64 // minutes, sampled at the city center
	DriverSetMeanEWT   float64
}

// ExtMarketComparison runs both market designs for `hours` and compares
// price levels, dispersion, and service quality. The surge market is the
// scenario's backend; the driver-set market has no engine, so it is a bare
// world over the same city and seed.
func ExtMarketComparison(sc api.Scenario, hours int) ExtMarketResult {
	svc := sc.Build()
	profile := svc.World().Profile()
	s := runMarket(svc.World(), hours, svc.Step)
	d := runDriverSetMarket(profile, sc.Seed, hours)
	return ExtMarketResult{
		City:               profile.Name,
		SurgeMeanPrice:     s.mean,
		SurgePriceStd:      s.std,
		SurgeUnmetFrac:     s.unmet,
		SurgePricedOut:     s.pricedOut,
		SurgeMeanEWT:       s.ewt,
		DriverSetMeanPrice: d.mean,
		DriverSetPriceStd:  d.std,
		DriverSetUnmetFrac: d.unmet,
		DriverSetPricedOut: d.pricedOut,
		DriverSetMeanEWT:   d.ewt,
	}
}

type marketOutcome struct {
	mean, std, unmet, pricedOut, ewt float64
}

// runDriverSetMarket runs the Sidecar-style market (no surge engine; the
// world's default surge provider pins 1).
func runDriverSetMarket(profile *sim.CityProfile, seed int64, hours int) marketOutcome {
	w := sim.NewWorld(sim.Config{Profile: profile, Seed: seed})
	w.SetMarket(sim.MarketDriverSet)
	return runMarket(w, hours, w.Step)
}

// runMarket advances w by step for `hours`, sampling the city-center
// UberX EWT every five minutes, and summarises the market's outcome.
func runMarket(w *sim.World, hours int, step func()) marketOutcome {
	var ewtSum float64
	var ewtN int
	end := int64(hours) * 3600
	for w.Now() < end {
		step()
		if w.Now()%300 == 0 {
			ewtSum += w.EWT(core.UberX, geo.Point{}) / 60
			ewtN++
		}
	}
	mean, std, _ := w.PriceStats()
	total := float64(w.TotalPickups + w.TotalUnmet + w.TotalPricedOut)
	var o marketOutcome
	o.mean, o.std = mean, std
	if total > 0 {
		o.unmet = float64(w.TotalUnmet) / total
		o.pricedOut = float64(w.TotalPricedOut) / total
	}
	if ewtN > 0 {
		o.ewt = ewtSum / float64(ewtN)
	}
	return o
}

// ExtFuzzResult measures the methodology's robustness to Uber's stated
// location perturbation (§3.3: positions "may be slightly perturbed to
// protect drivers' safety"): the same campaign is run against a clean and
// a 25-meter-fuzzed backend and the measured series are compared.
type ExtFuzzResult struct {
	City string
	// SupplyRatio is fuzzed/clean total measured supply; DeathRatio the
	// same for deaths. Robustness means both stay near 1.
	SupplyRatio float64
	DeathRatio  float64
}

// ExtFuzzRobustness runs the paired campaigns against the scenario's
// backend for `hours`.
func ExtFuzzRobustness(sc api.Scenario, hours int) ExtFuzzResult {
	var profile *sim.CityProfile
	run := func(fuzz float64) (supply, deaths float64) {
		svc := sc.Build()
		svc.SetLocationFuzz(fuzz)
		profile = svc.World().Profile()
		pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
		camp := client.NewCampaign(svc, svc.World().Projection(), pts)
		camp.RegisterAll(svc)
		ds := measure.NewDataset(measure.Config{
			Profile: profile, Start: 0, End: int64(hours) * 3600,
		}, len(pts))
		camp.AddSink(ds)
		camp.RunSim(svc, int64(hours)*3600)
		ds.Close()
		for _, v := range ds.SupplySeries(core.UberX).Values {
			if !math.IsNaN(v) {
				supply += v
			}
		}
		for _, v := range ds.DeathSeries(core.UberX).Values {
			if !math.IsNaN(v) {
				deaths += v
			}
		}
		return supply, deaths
	}
	cs, cd := run(0)
	fs, fd := run(25)
	out := ExtFuzzResult{City: profile.Name}
	if cs > 0 {
		out.SupplyRatio = fs / cs
	}
	if cd > 0 {
		out.DeathRatio = fd / cd
	}
	return out
}

// ExtSmoothingResult compares the stock engine against the §8 proposal of
// smoothing surge with a weighted moving average.
type ExtSmoothingResult struct {
	City string
	// Volatility is Σ|Δm| across areas and intervals.
	RawVolatility      float64
	SmoothedVolatility float64
	// Episodes counts distinct surge episodes.
	RawEpisodes      int
	SmoothedEpisodes int
	// SurgedFrac keeps the marginal comparable.
	RawSurgedFrac      float64
	SmoothedSurgedFrac float64
}

// ExtSmoothing runs both engines for `hours` from the same seed. The
// smoothing weight is no scenario setting, so each run wires its own world
// and engine and steps them together.
func ExtSmoothing(profile *sim.CityProfile, seed int64, hours int) ExtSmoothingResult {
	run := func(smoothing float64) (vol float64, ep int, frac float64) {
		w := sim.NewWorld(sim.Config{Profile: profile, Seed: seed})
		e := surge.New(w, surge.Config{Params: profile.Surge, Seed: seed, Smoothing: smoothing})
		// The engine publishes one View per update, so a Step that
		// changes the View completed an interval.
		var views []*surge.View
		for end := int64(hours) * 3600; w.Now() < end; {
			w.Step()
			v := e.View()
			e.Step(w.Now())
			if e.View() != v {
				views = append(views, e.View())
			}
		}
		surged, total := 0, 0
		for a := 0; a < 4; a++ {
			inEp := false
			for i, v := range views {
				m := v.CurrentMultiplier(a)
				total++
				if m > 1 {
					surged++
					if !inEp {
						ep++
						inEp = true
					}
				} else {
					inEp = false
				}
				if i > 0 {
					vol += math.Abs(m - views[i-1].CurrentMultiplier(a))
				}
			}
		}
		if total > 0 {
			frac = float64(surged) / float64(total)
		}
		return vol, ep, frac
	}
	res := ExtSmoothingResult{City: profile.Name}
	res.RawVolatility, res.RawEpisodes, res.RawSurgedFrac = run(0)
	res.SmoothedVolatility, res.SmoothedEpisodes, res.SmoothedSurgedFrac = run(0.6)
	return res
}
