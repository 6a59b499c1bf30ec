package experiments

import (
	"math"
	"sort"
	"strings"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taxi"
)

// LowCostTypes and LuxuryTypes group products the way Fig 7 does.
var (
	LowCostTypes = []core.VehicleType{core.UberX, core.UberXL, core.UberFAMILY, core.UberPOOL}
	LuxuryTypes  = []core.VehicleType{core.UberBLACK, core.UberSUV}
)

// ---------------------------------------------------------------- Fig 2

// Fig2Row is one visibility-radius measurement.
type Fig2Row struct {
	City    string
	Hour    int
	RadiusM float64
}

// Fig2VisibilityRadius measures the visibility radius at the city center
// at each requested hour of day, reproducing Fig 2's diurnal curve
// (radius shrinks when cars are dense).
func Fig2VisibilityRadius(seed int64, hours []int) []Fig2Row {
	var out []Fig2Row
	// A single four-walker run is noisy (cars churn during the walk);
	// average three start points per hour, like repeating the paper's
	// experiment "over several days with different random locations".
	starts := []geo.Point{{X: 0, Y: 0}, {X: 400, Y: -300}, {X: -500, Y: 400}}
	for _, city := range []string{"manhattan", "sf"} {
		svc := api.Scenario{City: city, Seed: seed}.Build()
		for _, h := range hours {
			svc.RunUntil(int64(h) * 3600)
			var sum float64
			n := 0
			for _, start := range starts {
				res, err := client.MeasureVisibilityRadius(
					svc, svc, svc, svc.World().Projection(), start, core.UberX)
				if err != nil || res.Radius <= 0 {
					continue
				}
				sum += res.Radius
				n++
			}
			if n == 0 {
				continue
			}
			out = append(out, Fig2Row{City: city, Hour: h, RadiusM: sum / float64(n)})
		}
	}
	return out
}

// ---------------------------------------------------------------- Fig 4

// Fig4TaxiValidation runs the ground-truth validation experiment: a
// synthetic NYC taxi day, replayed and measured by 172 clients.
func Fig4TaxiValidation(seed int64, taxis int, startHour, endHour int64) *taxi.Result {
	tr := taxi.GenerateTrace(taxi.GenConfig{Seed: seed, Days: 1, Taxis: taxis})
	return taxi.Validate(tr, seed, startHour*3600, endHour*3600)
}

// ---------------------------------------------------------------- Fig 7

// Fig7Group is one lifespan CDF group.
type Fig7Group struct {
	City  string
	Group string // "low-cost" or "luxury"
	Hours *stats.CDF
	N     int
}

// Fig7Lifespans builds the car-lifespan CDFs after short-lived cleaning.
func Fig7Lifespans(runs ...*CityRun) []Fig7Group {
	var out []Fig7Group
	for _, r := range runs {
		for _, g := range []struct {
			name  string
			types []core.VehicleType
		}{{"low-cost", LowCostTypes}, {"luxury", LuxuryTypes}} {
			var hours []float64
			for _, vt := range g.types {
				for _, s := range r.Dataset.Lifespans(vt) {
					hours = append(hours, s/3600)
				}
			}
			out = append(out, Fig7Group{
				City: r.Profile.Name, Group: g.name,
				Hours: stats.NewCDF(hours), N: len(hours),
			})
		}
	}
	return out
}

// ---------------------------------------------------------------- Fig 8

// Fig8City bundles the time-series panel for one city.
type Fig8City struct {
	City   string
	Supply map[core.VehicleType]*stats.Series
	Demand map[core.VehicleType]*stats.Series
	Surge  *stats.Series
	EWT    *stats.Series
}

// Fig8TimeSeries extracts the four panels of Fig 8.
func Fig8TimeSeries(r *CityRun) Fig8City {
	out := Fig8City{
		City:   r.Profile.Name,
		Supply: map[core.VehicleType]*stats.Series{},
		Demand: map[core.VehicleType]*stats.Series{},
		Surge:  r.Dataset.SurgeSeries(),
		EWT:    r.Dataset.EWTSeries(),
	}
	for _, vt := range measure.TrackedTypes {
		out.Supply[vt] = r.Dataset.SupplySeries(vt)
		out.Demand[vt] = r.Dataset.DeathSeries(vt)
	}
	return out
}

// HourlyMean collapses a 5-minute series to hour-of-day means.
func HourlyMean(s *stats.Series) [24]float64 {
	var sum, n [24]float64
	for i, v := range s.Values {
		if math.IsNaN(v) {
			continue
		}
		t := s.Start + int64(i)*s.Step
		h := sim.HourOfDay(t)
		sum[h] += v
		n[h]++
	}
	var out [24]float64
	for h := range out {
		if n[h] > 0 {
			out[h] = sum[h] / n[h]
		}
	}
	return out
}

// ---------------------------------------------------------------- Figs 9/10

// HeatCell is one client cell of the spatial heatmaps.
type HeatCell struct {
	Pos        geo.Point
	CarsPerDay float64
	// CarsCI is the 95% confidence half-width of CarsPerDay across days
	// (NaN for single-day runs; the paper reports these per-square CIs).
	CarsCI     float64
	MeanEWTMin float64
}

// Fig9_10Heatmaps computes per-client average unique cars per day (with
// its across-days confidence interval) and mean EWT.
func Fig9_10Heatmaps(r *CityRun) []HeatCell {
	out := make([]HeatCell, len(r.Campaign.Clients))
	for i := range r.Campaign.Clients {
		days := r.Dataset.ClientCarDays[i]
		xs := make([]float64, len(days))
		for j, n := range days {
			xs[j] = float64(n)
		}
		mc := stats.MeanWithCI(xs)
		cars := mc.Mean
		if math.IsNaN(cars) {
			cars = 0
		}
		out[i] = HeatCell{
			Pos:        r.Campaign.Clients[i].Pos,
			CarsPerDay: cars,
			CarsCI:     mc.CI,
			MeanEWTMin: r.Dataset.ClientMeanEWT(i),
		}
	}
	return out
}

// HeatmapASCII renders heat cells as a text heatmap (darker character =
// larger value), reconstructing the grid from the cells' positions. field
// selects the plotted value.
func HeatmapASCII(cells []HeatCell, field func(HeatCell) float64) string {
	if len(cells) == 0 {
		return ""
	}
	// Collect the distinct x and y coordinates (the campaign grid).
	xs := map[float64]int{}
	ys := map[float64]int{}
	for _, c := range cells {
		xs[c.Pos.X] = 0
		ys[c.Pos.Y] = 0
	}
	xv := sortedKeys(xs)
	yv := sortedKeys(ys)
	for i, x := range xv {
		xs[x] = i
	}
	for i, y := range yv {
		ys[y] = i
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cells {
		v := field(c)
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	shades := []byte(" .:-=+*#%@")
	grid := make([][]byte, len(yv))
	for i := range grid {
		grid[i] = bytesRepeat(' ', len(xv))
	}
	for _, c := range cells {
		v := field(c)
		if math.IsNaN(v) {
			continue
		}
		f := 0.0
		if hi > lo {
			f = (v - lo) / (hi - lo)
		}
		idx := int(f * float64(len(shades)-1))
		grid[ys[c.Pos.Y]][xs[c.Pos.X]] = shades[idx]
	}
	// North at the top.
	var sb strings.Builder
	for r := len(grid) - 1; r >= 0; r-- {
		sb.Write(grid[r])
		sb.WriteByte('\n')
	}
	return sb.String()
}

func sortedKeys(m map[float64]int) []float64 {
	out := make([]float64, 0, len(m))
	for k := range m { //det:unordered the keys are sorted next
		out = append(out, k)
	}
	sort.Float64s(out)
	return out
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// ---------------------------------------------------------------- Fig 11

// Fig11EWT builds the EWT CDF (minutes) for a city.
func Fig11EWT(r *CityRun) *stats.CDF {
	xs := make([]float64, len(r.Dataset.EWTSamples))
	for i, v := range r.Dataset.EWTSamples {
		xs[i] = float64(v)
	}
	return stats.NewCDF(xs)
}

// ---------------------------------------------------------------- Fig 12

// Fig12Surge builds the surge-multiplier CDF for a city.
func Fig12Surge(r *CityRun) *stats.CDF {
	xs := make([]float64, len(r.Dataset.SurgeSamples))
	for i, v := range r.Dataset.SurgeSamples {
		xs[i] = float64(v)
	}
	return stats.NewCDF(xs)
}

// ---------------------------------------------------------------- Fig 13

// Fig13Durations holds the surge-duration CDFs for the two datastreams.
type Fig13Durations struct {
	City string
	// API is the February/API behaviour: pure 5-minute clock.
	API *stats.CDF
	// Client is the April client datastream: jitter fragments episodes.
	Client *stats.CDF
}

// Fig13SurgeDurations reconstructs surge episode lengths (seconds) from
// the API probes and from every campaign client's change log.
func Fig13SurgeDurations(r *CityRun) Fig13Durations {
	var apiDur, cliDur []float64
	for _, p := range r.APIProbes {
		apiDur = append(apiDur, measure.SurgeDurations(p.Log, 1, 0, r.End)...)
	}
	for _, log := range r.Dataset.Changes {
		cliDur = append(cliDur, measure.SurgeDurations(log, 1, 0, r.End)...)
	}
	return Fig13Durations{
		City:   r.Profile.Name,
		API:    stats.NewCDF(apiDur),
		Client: stats.NewCDF(cliDur),
	}
}

// ---------------------------------------------------------------- Fig 14

// Fig14Timeline reconstructs a window of the API and client multiplier
// step functions for one area/client pair.
type Fig14Timeline struct {
	City     string
	Start    int64
	End      int64
	APILog   []measure.SurgeChange
	ClientLo []measure.SurgeChange
}

// Fig14SurgeTimeline extracts the change logs for area 0 / client 0 over
// a window, defaulting to the busiest stretch.
func Fig14SurgeTimeline(r *CityRun, start, end int64) Fig14Timeline {
	out := Fig14Timeline{City: r.Profile.Name, Start: start, End: end}
	for _, c := range r.APIProbes[0].Log {
		if c.Time >= start && c.Time < end {
			out.APILog = append(out.APILog, c)
		}
	}
	for _, c := range r.Dataset.Changes[0] {
		if c.Time >= start && c.Time < end {
			out.ClientLo = append(out.ClientLo, c)
		}
	}
	return out
}

// ---------------------------------------------------------------- Fig 15

// Fig15Timing compares when multiplier changes land inside the 5-minute
// interval for the API stream vs the client stream.
type Fig15Timing struct {
	City   string
	API    *stats.CDF // offsets in seconds
	Client *stats.CDF
}

// Fig15UpdateTiming extracts change moments from both datastreams.
func Fig15UpdateTiming(r *CityRun) Fig15Timing {
	var apiM, cliM []float64
	for _, p := range r.APIProbes {
		apiM = append(apiM, measure.ChangeMoments(p.Log)...)
	}
	for _, log := range r.Dataset.Changes {
		cliM = append(cliM, measure.ChangeMoments(log)...)
	}
	return Fig15Timing{City: r.Profile.Name, API: stats.NewCDF(apiM), Client: stats.NewCDF(cliM)}
}

// ---------------------------------------------------------------- Figs 16/17

// Fig16Jitter summarizes multipliers served during jitter.
type Fig16Jitter struct {
	City string
	// During is the CDF of multipliers served during jitter events.
	During *stats.CDF
	// DropToOne is the fraction of events whose stale multiplier was 1.
	DropToOne float64
	// Reduced is the fraction of events where the stale value undercut
	// the interval's true multiplier.
	Reduced float64
	Events  int
}

// Fig16JitterMultipliers extracts jitter events and their multipliers.
func Fig16JitterMultipliers(r *CityRun) Fig16Jitter {
	events := measure.ExtractJitter(r.Dataset.Changes)
	var during []float64
	toOne, reduced := 0, 0
	for _, e := range events {
		during = append(during, e.During)
		if e.During == 1 {
			toOne++
		}
		if e.During < e.Base {
			reduced++
		}
	}
	out := Fig16Jitter{City: r.Profile.Name, During: stats.NewCDF(during), Events: len(events)}
	if len(events) > 0 {
		out.DropToOne = float64(toOne) / float64(len(events))
		out.Reduced = float64(reduced) / float64(len(events))
	}
	return out
}

// Fig17Simultaneity is the distribution of how many clients observe a
// jitter event at the same moment.
type Fig17Simultaneity struct {
	City string
	// FractionAlone is the share of events seen by exactly one client.
	FractionAlone float64
	Max           int
	Counts        *stats.CDF
	Events        int
}

// Fig17JitterSimultaneity reproduces Fig 17.
func Fig17JitterSimultaneity(r *CityRun) Fig17Simultaneity {
	events := measure.ExtractJitter(r.Dataset.Changes)
	counts := measure.SimultaneousJitter(events)
	out := Fig17Simultaneity{City: r.Profile.Name, Events: len(events)}
	if len(counts) == 0 {
		out.Counts = stats.NewCDF(nil)
		return out
	}
	alone := 0
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
		if c == 1 {
			alone++
		}
		if c > out.Max {
			out.Max = c
		}
	}
	out.FractionAlone = float64(alone) / float64(len(counts))
	out.Counts = stats.NewCDF(xs)
	return out
}
