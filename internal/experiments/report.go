package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/api"
	"repro/internal/chart"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transition"
)

// Report renders the paper-vs-measured rows of a Manhattan and a San
// Francisco run to w in Markdown; the experiments that need backends of
// their own (Figs 2 and 4, the extensions) run from the runs' scenario.
// It is the engine behind cmd/experiments and EXPERIMENTS.md.
func Report(w io.Writer, mhtn, sf *CityRun) {
	opts := mhtn.Opts
	fmt.Fprintf(w, "# Experiments: paper vs. measured\n\n")
	fmt.Fprintf(w, "Configuration: %d hour(s)/city, seed %d, jitter=%v.\n\n",
		opts.hours(), opts.Scenario.Seed, opts.Scenario.Jitter)
	runs := []*CityRun{mhtn, sf}

	reportFig2(w, opts.Scenario.Seed)
	reportFig4(w, opts.Scenario.Seed)
	reportFig7(w, runs)
	reportFig8(w, runs)
	reportFig9_10(w, runs)
	reportFig11(w, runs)
	reportFig12(w, runs)
	reportFig13(w, runs)
	reportFig14(w, sf)
	reportFig15(w, runs)
	reportFig16_17(w, runs)
	reportFig18_19(w, runs)
	reportFig20_21(w, runs)
	reportTable1(w, runs)
	reportFig22(w, runs)
	reportFig23_24(w, runs)
	reportExtensions(w, runs)
}

// extScenario is the backend an extension builds for run r: the run's
// scenario under the city's profile name, without the April jitter.
func extScenario(r *CityRun) api.Scenario {
	sc := r.Opts.Scenario
	sc.City, sc.Jitter = r.Profile.Name, false
	return sc
}

func reportExtensions(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Extensions — the §8 discussion, made executable\n\n")
	fmt.Fprintf(w, "These experiments go beyond the paper's measurements: the authors could only\nspeculate about them because they did not control the system. This reproduction does.\n\n")

	fmt.Fprintf(w, "### Driver collusion (paper: the black box \"is vulnerable to exploitation ... by colluding groups of drivers\")\n\n")
	fmt.Fprintf(w, "A ring logs off together for 30 minutes at evening rush, then returns to harvest.\n\n")
	fmt.Fprintf(w, "| city | drivers dark | peak surge lift | area fare lift after return |\n|---|---|---|---|\n")
	for _, r := range runs {
		c := ExtCollusion(extScenario(r))
		fmt.Fprintf(w, "| %s | %d | +%.1f | %+.0f USD/h |\n", c.City, c.Complied, c.PeakLift, c.FareLift)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "### Waiting out the surge (paper §5.2: \"savvy Uber passengers should wait-out surges\")\n\n")
	fmt.Fprintf(w, "| city | onsets | wait 5 min: improved / cleared | wait 15 min: improved / cleared | mean multiplier onset → after 5 min |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		e := ExtWaitOut(r)
		fmt.Fprintf(w, "| %s | %d | %.0f%% / %.0f%% | %.0f%% / %.0f%% | %.2f → %.2f |\n",
			e.City, e.Wait5.Cases,
			e.Wait5.ImprovedFrac()*100, e.Wait5.ClearedFrac()*100,
			e.Wait15.ImprovedFrac()*100, e.Wait15.ClearedFrac()*100,
			e.Wait5.MeanOnset, e.Wait5.MeanAfter)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "### Surge vs. driver-set pricing (paper §8: Sidecar's \"free-market approach\")\n\n")
	fmt.Fprintf(w, "With the slack Uber keeps in supply, the free market clears *below* the base fare\n(competition drives idle drivers' asks down) and prices almost nobody out; the surge\nmarket holds the base price and rations by multiplier instead.\n\n")
	fmt.Fprintf(w, "| city | market | mean price | price σ | unmet | priced out | mean EWT (min) |\n|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		m := ExtMarketComparison(extScenario(r), 12)
		fmt.Fprintf(w, "| %s | surge | %.2f | %.2f | %.1f%% | %.1f%% | %.1f |\n",
			m.City, m.SurgeMeanPrice, m.SurgePriceStd, m.SurgeUnmetFrac*100, m.SurgePricedOut*100, m.SurgeMeanEWT)
		fmt.Fprintf(w, "| %s | driver-set | %.2f | %.2f | %.1f%% | %.1f%% | %.1f |\n",
			m.City, m.DriverSetMeanPrice, m.DriverSetPriceStd, m.DriverSetUnmetFrac*100, m.DriverSetPricedOut*100, m.DriverSetMeanEWT)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "### Robustness to location perturbation (paper §3.3: positions \"may be slightly perturbed\")\n\n")
	fmt.Fprintf(w, "| city | fuzz | measured supply ratio | measured deaths ratio |\n|---|---|---|---|\n")
	for _, r := range runs {
		f := ExtFuzzRobustness(extScenario(r), 4)
		fmt.Fprintf(w, "| %s | 25 m | %.3f | %.3f |\n", f.City, f.SupplyRatio, f.DeathRatio)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "### Smoothed surge (paper §8: \"update surge prices more smoothly ... a weighted moving average\")\n\n")
	fmt.Fprintf(w, "Smoothing delivers what the paper asks for — far less oscillation and almost no\nsub-5-minute flicker — but at a price the paper did not anticipate: the EWMA decays\nslowly toward 1, so mild surge becomes near-permanent (see the surged-fraction column).\n\n")
	fmt.Fprintf(w, "| city | engine | Σ\\|Δm\\| | episodes | surged fraction |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		s := ExtSmoothing(r.Profile, r.Opts.Scenario.Seed, 12)
		fmt.Fprintf(w, "| %s | stock | %.1f | %d | %.1f%% |\n", s.City, s.RawVolatility, s.RawEpisodes, s.RawSurgedFrac*100)
		fmt.Fprintf(w, "| %s | smoothed (0.6) | %.1f | %d | %.1f%% |\n", s.City, s.SmoothedVolatility, s.SmoothedEpisodes, s.SmoothedSurgedFrac*100)
	}
	fmt.Fprintln(w)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func reportFig2(w io.Writer, seed int64) {
	fmt.Fprintf(w, "## Fig 2 — Visibility radius vs. time of day\n\n")
	fmt.Fprintf(w, "Paper: radius varies diurnally; averages 247 m (Manhattan) and 387 m (SF), larger at night.\n\n")
	rows := Fig2VisibilityRadius(seed, []int{0, 4, 8, 12, 16, 20})
	fmt.Fprintf(w, "| city | hour | radius (m) |\n|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(w, "| %s | %02d:00 | %.0f |\n", r.City, r.Hour, r.RadiusM)
	}
	fmt.Fprintln(w)
}

func reportFig4(w io.Writer, seed int64) {
	fmt.Fprintf(w, "## Fig 4 — Taxi ground-truth validation\n\n")
	fmt.Fprintf(w, "Paper: 172 clients capture 97%% of cars and 95%% of deaths.\n\n")
	res := Fig4TaxiValidation(seed, 1500, 8, 16)
	fmt.Fprintf(w, "- supply capture: **%.1f%%** (measured/truth)\n", res.SupplyCapture*100)
	fmt.Fprintf(w, "- death capture:  **%.1f%%**\n", res.DeathCapture*100)
	fmt.Fprintf(w, "- measured-vs-truth supply correlation: %.3f\n\n", res.SupplyCorrelation)
}

func reportFig7(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 5-7 — Data cleaning and car lifespans\n\n")
	fmt.Fprintf(w, "Paper (§4.1): short-lived cars near the visibility boundary are filtered before analysis; after cleaning, ~90%% of low-cost Ubers live a few hours and luxury cars live longer.\n\n")
	fmt.Fprintf(w, "| city | distinct car IDs | short-lived filtered | median observations/car |\n|---|---|---|---|\n")
	for _, r := range runs {
		c := r.Dataset.Cleaning()
		med := 0.0
		if len(c.ObsPerCar) > 0 {
			med = stats.NewCDF(c.ObsPerCar).Median()
		}
		fmt.Fprintf(w, "| %s | %d | %d (%.1f%%) | %.0f |\n",
			r.Profile.Name, c.TotalCars, c.ShortLived,
			float64(c.ShortLived)/float64(maxInt(c.TotalCars, 1))*100, med)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| city | group | n | median (h) | p90 (h) |\n|---|---|---|---|---|\n")
	for _, g := range Fig7Lifespans(runs...) {
		if g.N == 0 {
			continue
		}
		fmt.Fprintf(w, "| %s | %s | %d | %.2f | %.2f |\n",
			g.City, g.Group, g.N, g.Hours.Median(), g.Hours.Quantile(0.9))
	}
	fmt.Fprintln(w)
}

func reportFig8(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 8 — Supply, demand, surge, EWT over time\n\n")
	fmt.Fprintf(w, "Paper: diurnal peaks; SF has ~58%% more Ubers; SF surges more and higher; EWT ~3 min in both.\n\n")
	fmt.Fprintf(w, "| city | mean UberX supply / 5 min | surged fraction | mean surge | mean EWT (min) |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		s := Summarize(r)
		fmt.Fprintf(w, "| %s | %.0f | %.1f%% | %.3f | %.2f |\n",
			r.Profile.Name, s.MeanSupplyX, s.SurgedFrac*100, s.MeanSurge, s.MeanEWTMin)
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		fs := Fig8TimeSeries(r)
		hourly := HourlyMean(fs.Supply[core.UberX])
		surgeH := HourlyMean(fs.Surge)
		fmt.Fprintf(w, "%s hourly UberX supply / surge:\n\n", r.Profile.Name)
		fmt.Fprintf(w, "| hour | supply | surge |\n|---|---|---|\n")
		for h := 0; h < 24; h += 3 {
			fmt.Fprintf(w, "| %02d | %.0f | %.2f |\n", h, hourly[h], surgeH[h])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%s UberX supply per 5-min interval:\n\n```\n%s```\n\n",
			r.Profile.Name, chart.Line(fs.Supply[core.UberX].Values, 72, 10))
		fmt.Fprintf(w, "%s mean surge multiplier per interval:\n\n```\n%s```\n\n",
			r.Profile.Name, chart.Line(fs.Surge.Values, 72, 10))
	}
}

func reportFig9_10(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 9/10 — Spatial heatmaps\n\n")
	fmt.Fprintf(w, "Paper: cars skew toward commercial/tourist hotspots; EWT is not simply inverse density.\n\n")
	for _, r := range runs {
		cells := Fig9_10Heatmaps(r)
		density := HeatmapASCII(cells, func(c HeatCell) float64 { return c.CarsPerDay })
		ewt := HeatmapASCII(cells, func(c HeatCell) float64 { return c.MeanEWTMin })
		fmt.Fprintf(w, "%s cars/day (darker = more):\n\n```\n%s```\n\n%s mean EWT (darker = longer):\n\n```\n%s```\n\n",
			r.Profile.Name, density, r.Profile.Name, ewt)
		sort.Slice(cells, func(i, j int) bool { return cells[i].CarsPerDay > cells[j].CarsPerDay })
		fmt.Fprintf(w, "%s — densest cell %.0f cars/day at (%.0f,%.0f); sparsest %.0f at (%.0f,%.0f)",
			r.Profile.Name,
			cells[0].CarsPerDay, cells[0].Pos.X, cells[0].Pos.Y,
			cells[len(cells)-1].CarsPerDay, cells[len(cells)-1].Pos.X, cells[len(cells)-1].Pos.Y)
		// Per-square CIs (the paper reports the min and max): only
		// meaningful with 2+ days of data.
		minCI, maxCI := math.Inf(1), math.Inf(-1)
		for _, c := range cells {
			if math.IsNaN(c.CarsCI) {
				continue
			}
			minCI = math.Min(minCI, c.CarsCI)
			maxCI = math.Max(maxCI, c.CarsCI)
		}
		if !math.IsInf(minCI, 1) {
			fmt.Fprintf(w, "; per-square 95%% CI ±%.0f to ±%.0f", minCI, maxCI)
		}
		fmt.Fprintf(w, "\n\n")
	}
}

func reportFig11(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 11 — EWT distribution\n\n")
	fmt.Fprintf(w, "Paper: 87%% of waits ≤ 4 minutes; tail up to 43 minutes.\n\n")
	fmt.Fprintf(w, "| city | P(EWT ≤ 4 min) | median | p99 | max |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		c := Fig11EWT(r)
		fmt.Fprintf(w, "| %s | %.1f%% | %.2f | %.2f | %.2f |\n",
			r.Profile.Name, c.At(4)*100, c.Median(), c.Quantile(0.99), c.Quantile(1))
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		c := Fig11EWT(r)
		fmt.Fprintf(w, "%s EWT quantile curve (x = P, y = minutes):\n\n```\n%s```\n\n",
			r.Profile.Name, chart.CDF(c.Quantile, 60, 8))
	}
}

func reportFig12(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 12 — Surge multiplier distribution\n\n")
	fmt.Fprintf(w, "Paper: no surge 86%% of the time in Manhattan vs 43%% in SF; maxima 2.8 vs 4.1; surges mostly ≤ 1.5.\n\n")
	fmt.Fprintf(w, "| city | P(surge = 1) | P(surge ≤ 1.5) | max |\n|---|---|---|---|\n")
	for _, r := range runs {
		c := Fig12Surge(r)
		fmt.Fprintf(w, "| %s | %.1f%% | %.1f%% | %.1f |\n",
			r.Profile.Name, c.At(1)*100, c.At(1.5)*100, c.Quantile(1))
	}
	fmt.Fprintln(w)
}

func reportFig13(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 13 — Surge durations\n\n")
	fmt.Fprintf(w, "Paper: API/February streams step in 5-minute multiples (~40%% of surges last 5 min); the April client stream shows 40%% of surges under 1 minute (jitter).\n\n")
	fmt.Fprintf(w, "| city | stream | n | P(<1 min) | P(≤5 min) | P(≤10 min) | P(>20 min) |\n|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		d := Fig13SurgeDurations(r)
		for _, s := range []struct {
			name string
			cdf  interface {
				At(float64) float64
				Len() int
			}
		}{{"api", d.API}, {"client", d.Client}} {
			if s.cdf.Len() == 0 {
				continue
			}
			fmt.Fprintf(w, "| %s | %s | %d | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
				d.City, s.name, s.cdf.Len(),
				s.cdf.At(59)*100, s.cdf.At(300)*100, s.cdf.At(600)*100,
				(1-s.cdf.At(1200))*100)
		}
	}
	fmt.Fprintln(w)
}

func reportFig14(w io.Writer, r *CityRun) {
	fmt.Fprintf(w, "## Fig 14 — Surge over time: API vs client stream\n\n")
	fmt.Fprintf(w, "Paper: API changes on clean 5-minute boundaries; the client stream shows 20-30 s jitter dips.\n\n")
	// Pick the densest 25-minute client window.
	start := bestWindow(r, 1500)
	tl := Fig14SurgeTimeline(r, start, start+1500)
	fmt.Fprintf(w, "%s, window [%d, %d):\n\n", tl.City, tl.Start, tl.End)
	fmt.Fprintf(w, "API changes: ")
	for _, c := range tl.APILog {
		fmt.Fprintf(w, "t=%d %.1f→%.1f  ", c.Time, c.From, c.To)
	}
	fmt.Fprintf(w, "\nClient changes: ")
	for _, c := range tl.ClientLo {
		fmt.Fprintf(w, "t=%d %.1f→%.1f  ", c.Time, c.From, c.To)
	}
	fmt.Fprintf(w, "\n\n")
}

// bestWindow finds the window with the most client-0 changes.
func bestWindow(r *CityRun, width int64) int64 {
	log := r.Dataset.Changes[0]
	best, bestN := int64(0), -1
	for _, c := range log {
		start := c.Time
		n := 0
		for _, d := range log {
			if d.Time >= start && d.Time < start+width {
				n++
			}
		}
		if n > bestN {
			best, bestN = start, n
		}
	}
	return best
}

func reportFig15(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 15 — Moment of surge change within each interval\n\n")
	fmt.Fprintf(w, "Paper: API updates land in a ~35 s band; April client updates spread over ~2 min; jitter is uniform.\n\n")
	fmt.Fprintf(w, "| city | stream | n | p5 (s) | p95 (s) | spread (s) |\n|---|---|---|---|---|---|\n")
	for _, r := range runs {
		t := Fig15UpdateTiming(r)
		for _, s := range []struct {
			name string
			cdf  interface {
				Quantile(float64) float64
				Len() int
			}
		}{{"api", t.API}, {"client", t.Client}} {
			if s.cdf.Len() == 0 {
				continue
			}
			p5, p95 := s.cdf.Quantile(0.05), s.cdf.Quantile(0.95)
			fmt.Fprintf(w, "| %s | %s | %d | %.0f | %.0f | %.0f |\n",
				t.City, s.name, s.cdf.Len(), p5, p95, p95-p5)
		}
	}
	fmt.Fprintln(w)
}

func reportFig16_17(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 16/17 — Jitter multipliers and simultaneity\n\n")
	fmt.Fprintf(w, "Paper: jitter serves the previous interval's multiplier (30-50%% of events drop to 1; jitter usually lowers the price); ~90%% of events are seen by a single client, never more than 5.\n\n")
	fmt.Fprintf(w, "| city | events | drop-to-1 | price-reduced | alone | max simultaneous |\n|---|---|---|---|---|---|\n")
	for _, r := range runs {
		j := Fig16JitterMultipliers(r)
		s := Fig17JitterSimultaneity(r)
		fmt.Fprintf(w, "| %s | %d | %.1f%% | %.1f%% | %.1f%% | %d |\n",
			j.City, j.Events, j.DropToOne*100, j.Reduced*100, s.FractionAlone*100, s.Max)
	}
	fmt.Fprintln(w)
}

func reportFig18_19(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 18/19 — Surge areas recovered from lock-step multipliers\n\n")
	fmt.Fprintf(w, "Paper: probing the API at adjacent locations recovers Uber's hand-drawn surge-area partition (4 areas per measured region).\n\n")
	fmt.Fprintf(w, "| city | lattice points | inferred clusters | true areas | accuracy |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		a := Fig18_19SurgeAreas(r)
		if a.Map == nil {
			fmt.Fprintf(w, "| %s | - | - | %d | prober disabled |\n", a.City, a.TrueAreas)
			continue
		}
		fmt.Fprintf(w, "| %s | %d | %d | %d | %.1f%% |\n",
			a.City, len(a.Map.Points), a.Map.NumClusters, a.TrueAreas, a.Accuracy*100)
	}
	fmt.Fprintln(w)
	for _, r := range runs {
		a := Fig18_19SurgeAreas(r)
		if a.Map == nil {
			continue
		}
		fmt.Fprintf(w, "%s recovered partition (one label per lattice point, north up):\n\n```\n%s```\n\n",
			a.City, a.Map.ASCII())
	}
}

func reportFig20_21(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 20/21 — Cross-correlation with surge\n\n")
	fmt.Fprintf(w, "Paper: (supply − demand) correlates negatively with surge, EWT positively; both strongest at Δt = 0.\n\n")
	fmt.Fprintf(w, "| city | feature | r at Δt=0 | peak r | peak lag (min) |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		sd := Fig20SupplyDemandCorrelation(r, 60)
		ew := Fig21EWTCorrelation(r, 60)
		fmt.Fprintf(w, "| %s | supply − demand | %.3f | %.3f | %d |\n",
			r.Profile.Name, sd.RAtZero, sd.PeakR, sd.PeakLag)
		fmt.Fprintf(w, "| %s | EWT | %.3f | %.3f | %d |\n",
			r.Profile.Name, ew.RAtZero, ew.PeakR, ew.PeakLag)
	}
	fmt.Fprintln(w)
}

func reportTable1(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Table 1 — Forecasting surge with linear regression\n\n")
	fmt.Fprintf(w, "Paper: R² ≈ 0.37-0.57 at best — surge is not usefully forecastable from observable features.\n\n")
	fmt.Fprintf(w, "| city | model | n | θ_sd-diff | θ_ewt | θ_prev-surge | R² |\n|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		row, err := Table1Forecasting(r)
		if err != nil {
			fmt.Fprintf(w, "| %s | - | - | - | - | - | fit failed: %v |\n", r.Profile.Name, err)
			continue
		}
		t := row.Table
		fmt.Fprintf(w, "| %s | Raw | %d | %.4f | %.4f | %.3f | %.3f |\n",
			row.City, t.Raw.N, t.Raw.ThetaSDDiff, t.Raw.ThetaEWT, t.Raw.ThetaPrevSurge, t.Raw.R2)
		fmt.Fprintf(w, "| %s | Threshold | %d | %.4f | %.4f | %.3f | %.3f |\n",
			row.City, t.Threshold.N, t.Threshold.ThetaSDDiff, t.Threshold.ThetaEWT, t.Threshold.ThetaPrevSurge, t.Threshold.R2)
		fmt.Fprintf(w, "| %s | Rush | %d | %.4f | %.4f | %.3f | %.3f |\n",
			row.City, t.Rush.N, t.Rush.ThetaSDDiff, t.Rush.ThetaEWT, t.Rush.ThetaPrevSurge, t.Rush.R2)
	}
	fmt.Fprintln(w)
}

func reportFig22(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Fig 22 — Driver transitions under surge\n\n")
	fmt.Fprintf(w, "Paper: New ↑ slightly (≈ +3.7 pp avg) in surging areas; Dying ↓; Move-out ↑.\n\n")
	fmt.Fprintf(w, "| city | area | state | equal | surging | Δ (pp) |\n|---|---|---|---|---|---|\n")
	for _, r := range runs {
		for _, c := range Fig22Transitions(r) {
			if c.SurgeIntervals < 3 {
				continue // too few surging intervals to compare
			}
			fmt.Fprintf(w, "| %s | %d | %s | %.1f%% | %.1f%% | %+.1f |\n",
				c.City, c.Area, c.State, c.EqualShare*100, c.SurgeShare*100,
				(c.SurgeShare-c.EqualShare)*100)
		}
	}
	fmt.Fprintln(w)
	// The paper's headline: the New share rises ~3.7 pp on average across
	// comparable areas; Dying falls.
	fmt.Fprintf(w, "Average Δ across comparable areas:\n\n| city | New Δ (pp) | Dying Δ (pp) | Out Δ (pp) |\n|---|---|---|---|\n")
	for _, r := range runs {
		var dNew, dDying, dOut float64
		n := 0
		for _, c := range Fig22Transitions(r) {
			if c.SurgeIntervals < 3 {
				continue
			}
			switch c.State {
			case transition.StateNew:
				dNew += (c.SurgeShare - c.EqualShare) * 100
				n++
			case transition.StateDying:
				dDying += (c.SurgeShare - c.EqualShare) * 100
			case transition.StateOut:
				dOut += (c.SurgeShare - c.EqualShare) * 100
			}
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "| %s | %+.1f | %+.1f | %+.1f |\n",
			r.Profile.Name, dNew/float64(n), dDying/float64(n), dOut/float64(n))
	}
	fmt.Fprintln(w)
	// A reproduction-only insight: the simulator's ground truth shows new
	// drivers flock to surging areas much more strongly than the measured
	// "New" shares suggest. The 8-nearest-car cap saturates in surging
	// areas (suppressed demand piles up idle cars), hiding fresh logons
	// from the measurement — a methodology limitation the paper's taxi
	// validation could not expose, because the taxi clients were packed
	// three times denser.
	fmt.Fprintf(w, "Ground truth (driver logons by area, visible only to the operator):\n\n")
	fmt.Fprintf(w, "| city | area | New share, equal | New share, surging | Δ (pp) |\n|---|---|---|---|---|\n")
	for _, r := range runs {
		for a := 0; a < r.Trans.NumAreas(); a++ {
			if r.Trans.Intervals(transition.CondSurging, a) < 3 {
				continue
			}
			eq := r.Truth.Share(transition.CondEqual, a)
			sg := r.Truth.Share(transition.CondSurging, a)
			fmt.Fprintf(w, "| %s | %d | %.1f%% | %.1f%% | %+.1f |\n",
				r.Profile.Name, a, eq*100, sg*100, (sg-eq)*100)
		}
	}
	fmt.Fprintln(w)
}

func reportFig23_24(w io.Writer, runs []*CityRun) {
	fmt.Fprintf(w, "## Figs 23/24 — Avoiding surge by walking to an adjacent area\n\n")
	fmt.Fprintf(w, "Paper: feasible 10-20%% of the time around Times Square, ~2%% in SF; savings ≥ 0.5 in >50%% of cases; walks ≤ 7-9 min.\n\n")
	fmt.Fprintf(w, "| city | best client feasibility | median feasibility | feasible cases | median savings | median walk (min) | max walk |\n|---|---|---|---|---|---|---|\n")
	for _, r := range runs {
		if len(r.Strategy) == 0 {
			fmt.Fprintf(w, "| %s | strategy sweep disabled | | | | | |\n", r.Profile.Name)
			continue
		}
		cl := Fig23AvoidanceFeasibility(r)
		var fr []float64
		for _, c := range cl {
			fr = append(fr, c.Fraction)
		}
		sort.Float64s(fr)
		sv := Fig24AvoidanceSavings(r)
		medS, medW, maxW := 0.0, 0.0, 0.0
		if sv.N > 0 {
			medS = sv.Savings.Median()
			medW = sv.WalkMins.Median()
			maxW = sv.WalkMins.Quantile(1)
		}
		fmt.Fprintf(w, "| %s | %.1f%% | %.1f%% | %d | %.2f | %.1f | %.1f |\n",
			r.Profile.Name, fr[len(fr)-1]*100, fr[len(fr)/2]*100, sv.N, medS, medW, maxW)
	}
	fmt.Fprintln(w)
}
