package experiments

import (
	"math"

	"repro/internal/forecast"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/surgemap"
	"repro/internal/transition"
)

// ---------------------------------------------------------------- Figs 18/19

// Fig18Areas is the inferred surge-area partition plus its accuracy
// against the engine's true partition.
type Fig18Areas struct {
	City     string
	Map      *surgemap.Map
	Accuracy float64
	// TrueAreas is the ground-truth area count (4 in both cities).
	TrueAreas int
}

// Fig18_19SurgeAreas clusters the lattice series collected during the
// run.
func Fig18_19SurgeAreas(r *CityRun) Fig18Areas {
	out := Fig18Areas{City: r.Profile.Name, TrueAreas: len(r.Profile.SurgeAreas())}
	if r.Prober == nil {
		return out
	}
	m := r.Prober.Infer()
	areas := r.Profile.SurgeAreas()
	out.Map = m
	out.Accuracy = m.Accuracy(func(p geo.Point) int { return sim.AreaOf(areas, p) })
	return out
}

// ---------------------------------------------------------------- Figs 20/21

// CorrResult is one cross-correlation sweep averaged over areas.
type CorrResult struct {
	City string
	// Lags in minutes, and the mean correlation across areas at each lag.
	Lags []int
	R    []float64
	P    []float64
	// RAtZero and PeakLag summarize the curve.
	RAtZero float64
	PeakLag int
	PeakR   float64
}

// Fig20SupplyDemandCorrelation computes corr((supply − demand)(t+Δ),
// surge(t)) per area and averages, as Fig 20 does.
func Fig20SupplyDemandCorrelation(r *CityRun, maxLagMin int) CorrResult {
	return corrSweep(r, maxLagMin, func(a int) []float64 {
		s := r.Dataset.AreaSupplySeries(a)
		d := r.Dataset.AreaDeathSeries(a)
		out := make([]float64, s.Len())
		for i := range out {
			sv, dv := s.Values[i], d.Values[i]
			if math.IsNaN(sv) {
				out[i] = math.NaN()
				continue
			}
			if math.IsNaN(dv) {
				dv = 0
			}
			out[i] = sv - dv
		}
		return out
	})
}

// Fig21EWTCorrelation computes corr(EWT(t+Δ), surge(t)) per area and
// averages (Fig 21).
func Fig21EWTCorrelation(r *CityRun, maxLagMin int) CorrResult {
	return corrSweep(r, maxLagMin, func(a int) []float64 {
		return r.Dataset.AreaEWTSeries(a).Values
	})
}

// corrSweep correlates surge against a per-area feature across lags,
// using the paper's convention: the correlation at Δt compares surge
// during [t, t+5) with feature values over [t+Δt−5, t+Δt). Δt = 0 is
// therefore the trailing 5-minute window — the exact window the surge
// engine consumes, which is why the paper (and this reproduction) find
// the strongest correlation there.
func corrSweep(r *CityRun, maxLagMin int, feature func(area int) []float64) CorrResult {
	maxLag := maxLagMin/5 + 1 // one extra index for the half-open shift
	res := CorrResult{City: r.Profile.Name}
	sums := make([]float64, 2*maxLag+1)
	psums := make([]float64, 2*maxLag+1)
	ns := make([]int, 2*maxLag+1)
	for a := 0; a < r.Dataset.NumAreas(); a++ {
		surge := r.Dataset.AreaSurgeSeries(a).Values
		feat := feature(a)
		lcs := stats.CrossCorrelate(surge, feat, maxLag)
		for i, lc := range lcs {
			if lc.HasR {
				sums[i] += lc.R
				psums[i] += lc.P
				ns[i]++
			}
		}
	}
	for i := range sums {
		// Index lag (i - maxLag) compares surge(t) with feat(t+idx); the
		// paper's Δt for that pairing is (idx + 1) intervals.
		lag := (i - maxLag + 1) * 5
		if lag < -maxLagMin || lag > maxLagMin {
			continue
		}
		res.Lags = append(res.Lags, lag)
		if ns[i] == 0 {
			res.R = append(res.R, math.NaN())
			res.P = append(res.P, math.NaN())
			continue
		}
		r0 := sums[i] / float64(ns[i])
		res.R = append(res.R, r0)
		res.P = append(res.P, psums[i]/float64(ns[i]))
		if lag == 0 {
			res.RAtZero = r0
		}
		if math.Abs(r0) > math.Abs(res.PeakR) {
			res.PeakR = r0
			res.PeakLag = lag
		}
	}
	return res
}

// ---------------------------------------------------------------- Table 1

// Table1Row is one city's fitted forecasting models.
type Table1Row struct {
	City    string
	Table   forecast.Table
	Samples int
}

// Table1Forecasting fits the Raw/Threshold/Rush regressions on a run.
func Table1Forecasting(r *CityRun) (Table1Row, error) {
	t, samples, err := forecast.FitCity(r.Dataset)
	return Table1Row{City: r.Profile.Name, Table: t, Samples: len(samples)}, err
}

// ---------------------------------------------------------------- Fig 22

// Fig22Cell is one bar pair of Fig 22.
type Fig22Cell struct {
	City       string
	Area       int
	State      transition.State
	EqualShare float64
	SurgeShare float64
	// SurgeIntervals is how many interval transitions had this area
	// surging ≥ 0.2 above its neighbors.
	SurgeIntervals int
}

// Fig22Transitions extracts every (area, state) share pair.
func Fig22Transitions(r *CityRun) []Fig22Cell {
	var out []Fig22Cell
	for a := 0; a < r.Trans.NumAreas(); a++ {
		for st := 0; st < transition.NumStates; st++ {
			out = append(out, Fig22Cell{
				City:           r.Profile.Name,
				Area:           a,
				State:          transition.State(st),
				EqualShare:     r.Trans.Share(transition.CondEqual, transition.State(st), a),
				SurgeShare:     r.Trans.Share(transition.CondSurging, transition.State(st), a),
				SurgeIntervals: r.Trans.Intervals(transition.CondSurging, a),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------- Figs 23/24

// Fig23Client is one client's strategy feasibility.
type Fig23Client struct {
	City     string
	Client   int
	Pos      geo.Point
	Fraction float64 // share of scans with a feasible cheaper pickup
	Scans    int
}

// Fig23AvoidanceFeasibility reports, per client position, how often the
// §6 strategy found a cheaper reachable pickup.
func Fig23AvoidanceFeasibility(r *CityRun) []Fig23Client {
	out := make([]Fig23Client, len(r.Strategy))
	for i, st := range r.Strategy {
		f := 0.0
		if st.Scans > 0 {
			f = float64(st.Feasible) / float64(st.Scans)
		}
		out[i] = Fig23Client{
			City: r.Profile.Name, Client: i, Pos: r.Campaign.Clients[i].Pos,
			Fraction: f, Scans: st.Scans,
		}
	}
	return out
}

// Fig24Savings aggregates the savings and walking-time distributions.
type Fig24Savings struct {
	City     string
	Savings  *stats.CDF // multiplier reduction
	WalkMins *stats.CDF
	N        int
}

// Fig24AvoidanceSavings pools every client's feasible cases (Fig 24's
// solid lines).
func Fig24AvoidanceSavings(r *CityRun) Fig24Savings {
	var sav, walk []float64
	for _, st := range r.Strategy {
		sav = append(sav, st.Savings...)
		walk = append(walk, st.WalkMins...)
	}
	return Fig24Savings{
		City:    r.Profile.Name,
		Savings: stats.NewCDF(sav), WalkMins: stats.NewCDF(walk),
		N: len(sav),
	}
}

// SupplyDemandSummary is used by Fig 8 reporting and sanity tests.
type SupplyDemandSummary struct {
	MeanSupplyX float64
	MeanSurge   float64
	MeanEWTMin  float64
	SurgedFrac  float64
}

// Summarize computes the headline aggregates of a run.
func Summarize(r *CityRun) SupplyDemandSummary {
	var s SupplyDemandSummary
	s.MeanSupplyX = r.Dataset.SupplySeries(measure.TrackedTypes[0]).Mean()
	s.MeanEWTMin = r.Dataset.EWTSeries().Mean()
	surged, n := 0, 0
	var sum float64
	for _, v := range r.Dataset.SurgeSamples {
		sum += float64(v)
		n++
		if v > 1 {
			surged++
		}
	}
	if n > 0 {
		s.MeanSurge = sum / float64(n)
		s.SurgedFrac = float64(surged) / float64(n)
	}
	return s
}
