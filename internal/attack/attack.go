// Package attack implements the driver-collusion manipulation the paper's
// discussion (§8) warns about: because surge is computed from a black-box
// reading of local supply and demand, a group of drivers who log off
// together can starve an area's supply, wait for the multiplier to rise,
// and log back in to harvest the inflated fares. Press reports and the
// paper's reference [2] describe exactly this scheme at airports.
//
// The experiment runs two identical backends from the same seed — one
// clean, one attacked — and compares the target area's multiplier
// trajectory around the attack window.
package attack

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/surge"
)

// Config parameterizes a collusion experiment.
type Config struct {
	Profile *sim.CityProfile
	Seed    int64
	// Area is the surge area the ring targets.
	Area int
	// Drivers is how many idle UberX drivers collude.
	Drivers int
	// At is when they log off (simulation seconds); Duration is how long
	// they stay dark.
	At       int64
	Duration int64
	// ObserveFor is how long after the attack start to record multipliers.
	ObserveFor int64
}

// Result captures the attacked vs. baseline trajectories.
type Result struct {
	// Complied is how many drivers actually went offline.
	Complied int
	// Baseline and Attacked are the target area's ground-truth
	// multipliers per 5-minute interval, starting at cfg.At.
	Baseline []float64
	Attacked []float64
	// Economics of the target area over the observation window and over
	// the post-return stretch (when the ring is back to harvest the
	// inflated multipliers): passenger spend in USD.
	BaselineFares   float64
	AttackedFares   float64
	BaselinePostRet float64
	AttackedPostRet float64
}

// PeakLift returns the largest multiplier increase the attack achieved
// over the baseline at the same instant.
func (r *Result) PeakLift() float64 {
	lift := 0.0
	for i := range r.Attacked {
		if i >= len(r.Baseline) {
			break
		}
		if d := r.Attacked[i] - r.Baseline[i]; d > lift {
			lift = d
		}
	}
	return lift
}

// Induced reports whether the attack raised surge above the baseline at
// any observed interval.
func (r *Result) Induced() bool { return r.PeakLift() > 0 }

// Run executes the experiment.
func Run(cfg Config) *Result {
	if cfg.ObserveFor <= 0 {
		cfg.ObserveFor = 3600
	}
	base := record(cfg, false)
	hit := record(cfg, true)
	return &Result{
		Complied:        hit.complied,
		Baseline:        base.series,
		Attacked:        hit.series,
		BaselineFares:   base.fares,
		AttackedFares:   hit.fares,
		BaselinePostRet: base.postReturnFares,
		AttackedPostRet: hit.postReturnFares,
	}
}

// FareLift returns the attacked-minus-baseline passenger spend in the
// target area after the ring returns (the collusion payoff window).
func (r *Result) FareLift() float64 { return r.AttackedPostRet - r.BaselinePostRet }

type trajectory struct {
	series          []float64
	complied        int
	fares           float64
	postReturnFares float64
}

func record(cfg Config, attacked bool) trajectory {
	w := sim.NewWorld(sim.Config{Profile: cfg.Profile, Seed: cfg.Seed})
	e := surge.New(w, surge.Config{Params: cfg.Profile.Surge, Seed: cfg.Seed})
	r := &surge.Runner{World: w, Engine: e}
	r.RunUntil(cfg.At)

	var tr trajectory
	if attacked {
		tr.complied = w.ForceOffline(core.UberX, cfg.Area, cfg.Drivers, cfg.Duration)
	}
	faresAtStart := w.AreaFares[cfg.Area]
	faresAtReturn := faresAtStart
	returnAt := cfg.At + cfg.Duration
	end := cfg.At + cfg.ObserveFor
	for w.Now() < end {
		r.RunUntil(w.Now()/300*300 + 300)
		tr.series = append(tr.series, e.View().CurrentMultiplier(cfg.Area))
		if w.Now() <= returnAt {
			faresAtReturn = w.AreaFares[cfg.Area]
		}
	}
	tr.fares = w.AreaFares[cfg.Area] - faresAtStart
	tr.postReturnFares = w.AreaFares[cfg.Area] - faresAtReturn
	return tr
}
