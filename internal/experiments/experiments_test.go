package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/transition"
)

// Shared short runs: 8 hours per city covers a morning rush, enough for
// every figure to produce output.
var (
	runOnce sync.Once
	mhtnRun *CityRun
	sfRun   *CityRun
)

func sharedRuns(t testing.TB) (*CityRun, *CityRun) {
	t.Helper()
	runOnce.Do(func() {
		mhtnRun = RunCity(Options{Scenario: api.Scenario{City: "manhattan", Seed: 1234, Jitter: true}, Hours: 8})
		sfRun = RunCity(Options{Scenario: api.Scenario{City: "sf", Seed: 1234, Jitter: true}, Hours: 8})
	})
	return mhtnRun, sfRun
}

func TestRunCityBasics(t *testing.T) {
	m, s := sharedRuns(t)
	for _, r := range []*CityRun{m, s} {
		if r.Campaign.Rounds == 0 {
			t.Fatalf("%s: no rounds", r.Profile.Name)
		}
		if r.Campaign.Errors != 0 {
			t.Errorf("%s: %d campaign errors", r.Profile.Name, r.Campaign.Errors)
		}
		if len(r.APIProbes) != 4 {
			t.Errorf("%s: %d API probes", r.Profile.Name, len(r.APIProbes))
		}
		for i, p := range r.APIProbes {
			if p.Errs != 0 {
				t.Errorf("%s: probe %d had %d errors (rate limit?)", r.Profile.Name, i, p.Errs)
			}
			if len(p.Samples) == 0 {
				t.Errorf("%s: probe %d collected nothing", r.Profile.Name, i)
			}
		}
		if len(r.Strategy) == 0 {
			t.Errorf("%s: no strategy stats", r.Profile.Name)
		}
	}
}

func TestFig7LifespanGroups(t *testing.T) {
	m, s := sharedRuns(t)
	groups := Fig7Lifespans(m, s)
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	// Luxury sessions run longer than low-cost in both cities (Fig 7).
	byCity := map[string]map[string]Fig7Group{}
	for _, g := range groups {
		if byCity[g.City] == nil {
			byCity[g.City] = map[string]Fig7Group{}
		}
		byCity[g.City][g.Group] = g
	}
	for city, m := range byCity {
		low, lux := m["low-cost"], m["luxury"]
		if low.N == 0 || lux.N == 0 {
			t.Errorf("%s: empty group (low %d, lux %d)", city, low.N, lux.N)
			continue
		}
		if lux.Hours.Median() <= low.Hours.Median() {
			t.Errorf("%s: luxury median %.2fh should exceed low-cost %.2fh",
				city, lux.Hours.Median(), low.Hours.Median())
		}
	}
}

func TestFig8SupplyOrdering(t *testing.T) {
	m, s := sharedRuns(t)
	sm, ss := Summarize(m), Summarize(s)
	if ss.MeanSupplyX <= sm.MeanSupplyX {
		t.Errorf("SF mean supply (%.0f) should exceed Manhattan (%.0f)", ss.MeanSupplyX, sm.MeanSupplyX)
	}
	if ss.SurgedFrac <= sm.SurgedFrac {
		t.Errorf("SF surge fraction (%.2f) should exceed Manhattan (%.2f)", ss.SurgedFrac, sm.SurgedFrac)
	}
	// EWT ~ 3 minutes in both cities.
	for _, x := range []SupplyDemandSummary{sm, ss} {
		if x.MeanEWTMin < 1 || x.MeanEWTMin > 8 {
			t.Errorf("mean EWT %.1f min outside 1-8", x.MeanEWTMin)
		}
	}
}

func TestFig11_12CDFs(t *testing.T) {
	m, s := sharedRuns(t)
	for _, r := range []*CityRun{m, s} {
		ewt := Fig11EWT(r)
		if ewt.Len() == 0 {
			t.Fatal("empty EWT CDF")
		}
		// The bulk of waits must be short (paper: 87% ≤ 4 min).
		if ewt.At(4) < 0.5 {
			t.Errorf("%s: P(EWT≤4min) = %.2f, want > 0.5", r.Profile.Name, ewt.At(4))
		}
		surge := Fig12Surge(r)
		if surge.At(0.999) != 0 {
			t.Errorf("%s: multipliers below 1 exist", r.Profile.Name)
		}
	}
	// Manhattan mostly unsurged, SF mostly surged (Fig 12's contrast).
	if Fig12Surge(m).At(1) < Fig12Surge(s).At(1) {
		t.Error("Manhattan should have more surge-free time than SF")
	}
}

func TestFig13DurationsShow5MinuteClock(t *testing.T) {
	_, s := sharedRuns(t)
	d := Fig13SurgeDurations(s)
	if d.API.Len() == 0 || d.Client.Len() == 0 {
		t.Skip("no surges in window")
	}
	// API durations quantize near 5-minute multiples: nothing under ~4 min
	// except boundary trims; client stream (jitter) has sub-minute blips.
	if d.Client.At(59) <= d.API.At(59) {
		t.Errorf("client stream should have more sub-minute surges: client %.2f vs api %.2f",
			d.Client.At(59), d.API.At(59))
	}
}

func TestFig15TimingBands(t *testing.T) {
	_, s := sharedRuns(t)
	tm := Fig15UpdateTiming(s)
	if tm.API.Len() == 0 {
		t.Skip("no API changes")
	}
	// API changes confined to the first 45 seconds.
	if q := tm.API.Quantile(1); q > 45 {
		t.Errorf("API change at offset %.0f s, want ≤ 45", q)
	}
	// Client changes spread wider (client switch band + jitter).
	if tm.Client.Len() > 10 {
		if spread := tm.Client.Quantile(0.95) - tm.Client.Quantile(0.05); spread <= 45 {
			t.Errorf("client change spread = %.0f s, want wider than the API band", spread)
		}
	}
}

func TestFig16_17Jitter(t *testing.T) {
	_, s := sharedRuns(t)
	j := Fig16JitterMultipliers(s)
	if j.Events == 0 {
		t.Skip("no jitter events in window")
	}
	// Jitter mostly reduces prices (paper: 64-74%).
	if j.Reduced < 0.4 {
		t.Errorf("jitter reduced price only %.0f%% of the time", j.Reduced*100)
	}
	si := Fig17JitterSimultaneity(s)
	if si.FractionAlone < 0.6 {
		t.Errorf("fraction alone = %.2f, want ~0.9", si.FractionAlone)
	}
	if si.Max > 6 {
		t.Errorf("max simultaneous = %d, paper saw ≤ 5", si.Max)
	}
}

func TestFig18AreasRecovered(t *testing.T) {
	_, s := sharedRuns(t)
	a := Fig18_19SurgeAreas(s)
	if a.Map == nil {
		t.Fatal("prober missing")
	}
	if a.Map.NumClusters < 2 {
		t.Errorf("clusters = %d, want the partition to resolve", a.Map.NumClusters)
	}
	if a.Accuracy < 0.85 {
		t.Errorf("accuracy = %.2f, want ≥ 0.85", a.Accuracy)
	}
}

func TestFig20_21Correlations(t *testing.T) {
	_, s := sharedRuns(t)
	sd := Fig20SupplyDemandCorrelation(s, 60)
	ew := Fig21EWTCorrelation(s, 60)
	if math.IsNaN(sd.RAtZero) || math.IsNaN(ew.RAtZero) {
		t.Fatal("correlation at lag 0 is NaN")
	}
	// The paper's signed claims (supply−demand negative, EWT positive)
	// are full-day statistics; EXPERIMENTS.md regenerates them at
	// -hours 24, where both cities come out clearly negative/positive. In
	// this 8-hour overnight window the supply−demand correlation is
	// dominated by the shared diurnal ramp into the morning rush — its
	// sign is seed luck (r at 0 spans roughly −0.07..+0.08 across seeds,
	// with either RNG layout), so asserting it here would pin noise. The
	// shape that IS robust at 8 hours: EWT couples strongly and
	// positively with surge, while supply−demand sits near zero, far
	// below it.
	if ew.RAtZero <= 0 {
		t.Errorf("EWT r at 0 = %.3f, want positive", ew.RAtZero)
	}
	if math.Abs(sd.RAtZero) > 0.2 {
		t.Errorf("supply-demand r at 0 = %.3f, want near zero at the trend-dominated 8h window", sd.RAtZero)
	}
	if sd.RAtZero > ew.RAtZero-0.1 {
		t.Errorf("supply-demand r at 0 = %.3f not clearly below EWT r = %.3f", sd.RAtZero, ew.RAtZero)
	}
}

func TestTable1NotForecastable(t *testing.T) {
	_, s := sharedRuns(t)
	row, err := Table1Forecasting(s)
	if err != nil {
		t.Fatal(err)
	}
	if row.Table.Raw.R2 >= 0.9 {
		t.Errorf("Raw R² = %.3f: surge must not be strongly forecastable", row.Table.Raw.R2)
	}
}

func TestFig22CellsComplete(t *testing.T) {
	m, _ := sharedRuns(t)
	cells := Fig22Transitions(m)
	if len(cells) != 4*transition.NumStates {
		t.Fatalf("cells = %d, want %d", len(cells), 4*transition.NumStates)
	}
	for _, c := range cells {
		if c.EqualShare < 0 || c.EqualShare > 1 || c.SurgeShare < 0 || c.SurgeShare > 1 {
			t.Errorf("share out of range: %+v", c)
		}
	}
}

func TestTruthNewFlocking(t *testing.T) {
	// Ground truth: new driver logons flock toward surging areas (the
	// paper's Fig 22 direction), even when the measured shares are
	// distorted by visibility saturation.
	_, s := sharedRuns(t)
	up, checked := 0, 0
	for a := 0; a < s.Trans.NumAreas(); a++ {
		if s.Trans.Intervals(transition.CondSurging, a) < 5 {
			continue
		}
		checked++
		if s.Truth.Share(transition.CondSurging, a) > s.Truth.Share(transition.CondEqual, a) {
			up++
		}
	}
	if checked == 0 {
		t.Skip("no areas with enough surging intervals")
	}
	if up*2 < checked {
		t.Errorf("ground-truth New share rose in only %d/%d surging areas", up, checked)
	}
}

func TestFig23_24Strategy(t *testing.T) {
	m, s := sharedRuns(t)
	for _, r := range []*CityRun{m, s} {
		cl := Fig23AvoidanceFeasibility(r)
		if len(cl) == 0 {
			t.Fatal("no clients")
		}
		for _, c := range cl {
			if c.Scans == 0 {
				t.Errorf("%s client %d never scanned", c.City, c.Client)
			}
			if c.Fraction < 0 || c.Fraction > 1 {
				t.Errorf("fraction %v out of range", c.Fraction)
			}
		}
		sv := Fig24AvoidanceSavings(r)
		if sv.N > 0 {
			if sv.Savings.Quantile(0) < 0.1-1e-9 {
				t.Errorf("savings below one quantization step: %v", sv.Savings.Quantile(0))
			}
			if sv.WalkMins.Quantile(1) > 45 {
				t.Errorf("walk %.1f min implausible", sv.WalkMins.Quantile(1))
			}
		}
	}
}

func TestHourlyMeanAndSeriesMean(t *testing.T) {
	m, _ := sharedRuns(t)
	s := m.Dataset.SurgeSeries()
	hm := HourlyMean(s)
	nonzero := 0
	for _, v := range hm {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("hourly means all zero")
	}
	if math.IsNaN(s.Mean()) {
		t.Error("series mean NaN")
	}
	if sm := m.Dataset.SupplySeries(core.UberX).Mean(); sm <= 0 {
		t.Errorf("UberX supply mean = %v", sm)
	}
}

func TestFig2Rows(t *testing.T) {
	if testing.Short() {
		t.Skip("extra backends")
	}
	rows := Fig2VisibilityRadius(3, []int{4, 12})
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// For each city, the 4am radius exceeds the noon radius.
	byCity := map[string]map[int]float64{}
	for _, r := range rows {
		if byCity[r.City] == nil {
			byCity[r.City] = map[int]float64{}
		}
		byCity[r.City][r.Hour] = r.RadiusM
	}
	for city, m := range byCity {
		if m[4] > 0 && m[12] > 0 && m[4] <= m[12] {
			t.Errorf("%s: night radius %.0f should exceed noon %.0f", city, m[4], m[12])
		}
	}
}

func TestFig4Validation(t *testing.T) {
	if testing.Short() {
		t.Skip("taxi campaign")
	}
	res := Fig4TaxiValidation(5, 900, 9, 13)
	if res.SupplyCapture < 0.8 {
		t.Errorf("supply capture = %.2f", res.SupplyCapture)
	}
}

// sharedReport renders the Report of the shared runs once.
var (
	reportOnce sync.Once
	reportOut  string
)

func sharedReport(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("full report is slow")
	}
	m, s := sharedRuns(t)
	reportOnce.Do(func() {
		var buf bytes.Buffer
		Report(&buf, m, s)
		reportOut = buf.String()
	})
	return reportOut
}

// The report's header states the span the runs measured: the shared runs
// are 8 hours, not a day.
func TestReportHeaderStatesHours(t *testing.T) {
	const want = "Configuration: 8 hour(s)/city, seed 1234, jitter=true.\n"
	if out := sharedReport(t); !strings.Contains(out, want) {
		t.Errorf("report header does not state the runs' span %q:\n%.200s", want, out)
	}
}

func TestReportRenders(t *testing.T) {
	out := sharedReport(t)
	for _, want := range []string{
		"Fig 2", "Fig 4", "Figs 5-7", "Fig 8", "Figs 9/10", "Fig 11", "Fig 12",
		"Fig 13", "Fig 14", "Fig 15", "Figs 16/17", "Figs 18/19", "Figs 20/21",
		"Table 1", "Fig 22", "Figs 23/24", "Extensions",
		"Driver collusion", "Waiting out the surge", "driver-set pricing",
		"location perturbation", "Smoothed surge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}
