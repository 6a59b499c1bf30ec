// Package forecast fits the paper's Table 1 linear-regression models for
// predicting the next 5-minute interval's surge multiplier from the
// current interval's features: supply−demand difference, EWT, and the
// current multiplier.
//
// Three model variants mirror §5.4:
//
//   - Raw: fitted on all intervals (after removing surge=1 intervals
//     that neither precede nor follow a surge, the paper's cleaning rule);
//   - Threshold: fitted only on intervals where surge was already > 1;
//   - Rush: fitted only on rush-hour intervals (6-10am, 4-8pm).
//
// The paper's headline result is that none of these reach useful accuracy
// (R² ≈ 0.4), because the algorithm's inputs include non-public data;
// this package exists to reproduce that negative result.
package forecast

import (
	"errors"
	"math"

	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sample is one (features, label) pair: features describe interval t,
// the label is the multiplier of interval t+1.
type Sample struct {
	SDDiff    float64 // avg supply − demand over interval t
	EWT       float64 // avg EWT (minutes) over interval t
	PrevSurge float64 // multiplier during interval t
	NextSurge float64 // label: multiplier during interval t+1
	Time      int64   // start of interval t
}

// BuildSamplesRange extracts one area's samples for the intervals
// starting in [from, to) — the window cmd/analyze selects with -from/-to,
// so a fit over one evening of a long campaign doesn't pay for the other
// weeks — applying the paper's cleaning rule: intervals with surge = 1 are
// dropped unless they directly precede or follow a surging interval.
func BuildSamplesRange(ds *measure.Dataset, area int, from, to int64) []Sample {
	supply := ds.AreaSupplySeries(area)
	deaths := ds.AreaDeathSeries(area)
	ewt := ds.AreaEWTSeries(area)
	surge := ds.AreaSurgeSeries(area)
	n := surge.Len()
	var out []Sample
	for i := 0; i+1 < n; i++ {
		if t := surge.Start + int64(i)*measure.Interval; t < from || t >= to {
			continue
		}
		s, d, e := supply.Values[i], deaths.Values[i], ewt.Values[i]
		m, next := surge.Values[i], surge.Values[i+1]
		if math.IsNaN(s) || math.IsNaN(e) || math.IsNaN(m) || math.IsNaN(next) {
			continue
		}
		if math.IsNaN(d) {
			d = 0
		}
		// Cleaning rule: drop all-quiet intervals.
		if m == 1 && next == 1 {
			prevSurging := i > 0 && !math.IsNaN(surge.Values[i-1]) && surge.Values[i-1] > 1
			if !prevSurging {
				continue
			}
		}
		out = append(out, Sample{
			SDDiff:    s - d,
			EWT:       e,
			PrevSurge: m,
			NextSurge: next,
			Time:      surge.Start + int64(i)*measure.Interval,
		})
	}
	return out
}

// Model is one fitted Table 1 row entry.
type Model struct {
	Name string
	// ThetaSDDiff, ThetaEWT, ThetaPrevSurge are the learned coefficients
	// (the paper's θ_sd-diff, θ_ewt, θ_prev-surge).
	ThetaSDDiff    float64
	ThetaEWT       float64
	ThetaPrevSurge float64
	Intercept      float64
	R2             float64
	N              int
}

var errTooFew = errors.New("forecast: too few samples to fit")

// fit runs OLS over the subset and packages the coefficients.
func fit(name string, samples []Sample) (Model, error) {
	if len(samples) < 8 {
		return Model{Name: name}, errTooFew
	}
	rows := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		rows[i] = []float64{s.SDDiff, s.EWT, s.PrevSurge}
		y[i] = s.NextSurge
	}
	reg, err := stats.FitOLS(rows, y)
	if err != nil {
		return Model{Name: name}, err
	}
	return Model{
		Name:           name,
		ThetaSDDiff:    reg.Coef[0],
		ThetaEWT:       reg.Coef[1],
		ThetaPrevSurge: reg.Coef[2],
		Intercept:      reg.Intercept,
		R2:             reg.R2,
		N:              reg.N,
	}, nil
}

// Predict evaluates the model on a sample's features.
func (m Model) Predict(s Sample) float64 {
	return m.Intercept + m.ThetaSDDiff*s.SDDiff + m.ThetaEWT*s.EWT + m.ThetaPrevSurge*s.PrevSurge
}

// Table is the per-city Table 1 row: the three models.
type Table struct {
	Raw       Model
	Threshold Model
	Rush      Model
}

// FitTable fits all three §5.4 variants on the samples.
func FitTable(samples []Sample) (Table, error) {
	var t Table
	var err error
	if t.Raw, err = fit("Raw", samples); err != nil {
		return t, err
	}
	var thr, rush []Sample
	for _, s := range samples {
		if s.PrevSurge > 1 {
			thr = append(thr, s)
		}
		if sim.Rush(sim.HourOfDay(s.Time)) {
			rush = append(rush, s)
		}
	}
	// Threshold and Rush can legitimately lack data on a quiet city; a
	// zero-value model (N=0) records that.
	if m, err := fit("Threshold", thr); err == nil {
		t.Threshold = m
	} else {
		t.Threshold = Model{Name: "Threshold"}
	}
	if m, err := fit("Rush", rush); err == nil {
		t.Rush = m
	} else {
		t.Rush = Model{Name: "Rush"}
	}
	return t, nil
}

// FitCity builds samples for every area of a dataset and fits one pooled
// table (the paper fits per-area models and reports the average R²; with
// identical per-area feature semantics, pooling gives the same shape with
// more data).
func FitCity(ds *measure.Dataset) (Table, []Sample, error) {
	return FitCityRange(ds, math.MinInt64, math.MaxInt64)
}

// FitCityRange is FitCity restricted to intervals starting in [from, to).
func FitCityRange(ds *measure.Dataset, from, to int64) (Table, []Sample, error) {
	var all []Sample
	for a := 0; a < ds.NumAreas(); a++ {
		all = append(all, BuildSamplesRange(ds, a, from, to)...)
	}
	t, err := FitTable(all)
	return t, all, err
}
