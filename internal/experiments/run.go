// Package experiments contains one runner per table and figure of the
// paper's evaluation, regenerating the same rows and series from the
// simulated backend through the measurement pipeline. cmd/experiments and
// the root bench_test.go drive these runners.
//
// A single CityRun per city feeds every figure: it advances the backend
// tick by tick while simultaneously running the 43-client campaign
// (client datastream), four API probes (API datastream), the surge-area
// prober (Figs 18/19), and the per-client strategy sweeps (Figs 23/24) —
// mirroring how the paper's one measurement corpus backs all analyses.
package experiments

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/surgemap"
	"repro/internal/transition"
)

// Options configures a CityRun.
type Options struct {
	// Scenario names the backend the campaign measures. Its Jitter is the
	// April 2015 datastream (Fig 13's February line comes from the API
	// probes, which never jitter); its Engine, when not the default, is
	// one of the alternative regimes the audit methodology is run against.
	Scenario api.Scenario
	// Days of measurement (default 1).
	Days int
	// Hours, when > 0, overrides Days with a sub-day window (tests and
	// benches use this).
	Hours int
}

// StrategyStats aggregates Figs 23/24 inputs for one client position.
type StrategyStats struct {
	Scans    int
	Feasible int
	Savings  []float64 // multiplier reduction when feasible
	WalkMins []float64 // walking minutes when feasible
}

// CityRun is one city's complete measurement campaign.
type CityRun struct {
	Profile   *sim.CityProfile
	Svc       *api.Service
	Campaign  *client.Campaign
	Dataset   *measure.Dataset
	Trans     *transition.Sink
	APIProbes []*measure.APIProbe // one per surge area
	Prober    *surgemap.Prober
	Strategy  []StrategyStats // per campaign client
	Opts      Options

	// Truth tracks operator-side ground truth the measurement cannot
	// see, used to contrast measured results with reality (Fig 22's New
	// shares are distorted by 8-car visibility saturation).
	Truth TruthNew

	End int64
}

// TruthNew accumulates, per surge condition and area, the share of new
// driver logons landing in the area — computed from the simulator
// directly, not from pingClient observations.
type TruthNew struct {
	counts [2][]float64
	denom  [2][]float64
}

// Share returns the ground-truth share of city-wide logons landing in
// the area under the condition (0 = equal surge, 1 = area surging ≥ 0.2
// above all neighbors).
func (t *TruthNew) Share(cond transition.Condition, area int) float64 {
	c := int(cond)
	if c < 0 || c > 1 || area >= len(t.denom[c]) || t.denom[c][area] == 0 {
		return 0
	}
	return t.counts[c][area] / t.denom[c][area]
}

// truthTracker observes driver logons per interval inside RunCity's loop.
type truthTracker struct {
	run   *CityRun
	seen  map[int64]bool
	prevM []float64
}

func newTruthTracker(run *CityRun, areas int) *truthTracker {
	tt := &truthTracker{run: run, seen: make(map[int64]bool), prevM: make([]float64, areas)}
	for i := range tt.prevM {
		tt.prevM[i] = 1
	}
	for c := 0; c < 2; c++ {
		run.Truth.counts[c] = make([]float64, areas)
		run.Truth.denom[c] = make([]float64, areas)
	}
	return tt
}

// tick runs at each 5-minute boundary: counts this interval's new driver
// sessions by area, conditions on the previous interval's multipliers.
func (tt *truthTracker) tick() {
	w := tt.run.Svc.World()
	v := tt.run.Svc.Engine().View()
	areas := w.Areas()
	n := len(areas)
	newBy := make([]float64, n)
	var total float64
	w.EachDriver(func(d *sim.Driver) {
		if tt.seen[d.ID] {
			return
		}
		tt.seen[d.ID] = true
		if a := sim.AreaOf(areas, d.Pos); a >= 0 {
			newBy[a]++
			total++
		}
	})
	equal := true
	for a := 1; a < n; a++ {
		if tt.prevM[a] != tt.prevM[0] {
			equal = false
			break
		}
	}
	for a := 0; a < n && total > 0; a++ {
		cond := -1
		if equal {
			cond = 0
		} else {
			above := true
			for b := 0; b < n; b++ {
				if b != a && tt.prevM[a] < tt.prevM[b]+transition.SurgeMargin {
					above = false
					break
				}
			}
			if above {
				cond = 1
			}
		}
		if cond >= 0 {
			tt.run.Truth.counts[cond][a] += newBy[a]
			tt.run.Truth.denom[cond][a] += total
		}
	}
	for a := 0; a < n; a++ {
		tt.prevM[a] = v.CurrentMultiplier(a)
	}
}

// RunCity executes the full campaign against the options' scenario, which
// must be valid (commands validate it at flag-parse time).
func RunCity(opts Options) *CityRun { return runCity(opts, true) }

// runCity is RunCity; without sweeps it skips the surge-area lattice
// prober and the per-interval strategy sweeps (the most expensive part of
// the loop).
func runCity(opts Options, sweeps bool) *CityRun {
	if opts.Days <= 0 {
		opts.Days = 1
	}
	end := int64(opts.Days) * sim.SecondsPerDay
	if opts.Hours > 0 {
		end = int64(opts.Hours) * 3600
	}

	svc := opts.Scenario.Build()
	profile := svc.World().Profile()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}
	ds := measure.NewDataset(measure.Config{
		Profile:     profile,
		Start:       0,
		End:         end,
		ClientAreas: clientAreas,
	}, len(pts))
	camp.AddSink(ds)

	trans := transition.NewSink(profile, pts)
	camp.AddSink(trans)

	run := &CityRun{
		Profile:  profile,
		Svc:      svc,
		Campaign: camp,
		Dataset:  ds,
		Trans:    trans,
		Opts:     opts,
		End:      end,
	}

	// One API probe per surge area, at a point inside the measurement
	// rect (area centroids can fall in the margin for edge areas).
	proj := svc.World().Projection()
	for a := range areas {
		id := fmt.Sprintf("api-probe-%d", a)
		svc.Register(id)
		pt := probePoint(profile, areas[a].Centroid())
		run.APIProbes = append(run.APIProbes, measure.NewAPIProbe(svc, id, proj.ToLatLng(pt)))
	}

	if sweeps {
		// In-process registration cannot fail; the error path exists for
		// remote probers.
		run.Prober, _ = surgemap.NewProber(svc, svc, proj, profile.MeasureRect, proberSpacing(profile))
	}

	var advisors []*strategy.Advisor
	if sweeps {
		run.Strategy = make([]StrategyStats, len(pts))
		for i := range pts {
			id := fmt.Sprintf("walker-%02d", i)
			svc.Register(id)
			advisors = append(advisors, strategy.NewAdvisor(svc, id, profile))
		}
	}

	tt := newTruthTracker(run, len(areas))

	// Main loop: tick, ping, poll; mid-interval, probe and advise.
	for svc.Now() < end {
		svc.Step()
		camp.Round()
		for _, p := range run.APIProbes {
			p.Poll()
		}
		if svc.Now()%measure.Interval == 0 {
			tt.tick()
		}
		if svc.Now()%measure.Interval == 150 {
			if run.Prober != nil {
				// Best effort: a transient rate limit drops one sample.
				_ = run.Prober.SampleOnce()
			}
			for i := range advisors {
				adv, err := advisors[i].Advise(pts[i])
				if err != nil {
					continue
				}
				st := &run.Strategy[i]
				st.Scans++
				if adv.Best != nil {
					st.Feasible++
					st.Savings = append(st.Savings, adv.Savings())
					st.WalkMins = append(st.WalkMins, adv.Best.WalkSeconds/60)
				}
			}
		}
	}
	ds.Close()
	trans.Close()
	return run
}

// probePoint clamps an area centroid into the measurement rect.
func probePoint(p *sim.CityProfile, c geo.Point) geo.Point {
	r := p.MeasureRect
	inset := geo.NewRect(
		geo.Point{X: r.Min.X + 100, Y: r.Min.Y + 100},
		geo.Point{X: r.Max.X - 100, Y: r.Max.Y - 100},
	)
	return inset.Clamp(c)
}

// proberSpacing picks the lattice pitch for surge-area inference: fine
// enough to resolve the partition, coarse enough to stay cheap.
func proberSpacing(p *sim.CityProfile) float64 {
	if p.MeasureRect.Width() > 3000 {
		return 450
	}
	return 300
}
