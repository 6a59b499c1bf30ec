// Package sim implements the city mobility simulator that stands in for
// Uber's production backend: drivers with an online/idle/en-route/on-trip
// state machine, a non-homogeneous Poisson passenger process with rush-hour
// peaks, nearest-driver dispatch, and city profiles calibrated so that the
// San Francisco and Manhattan worlds reproduce the aggregate dynamics the
// paper measured (fleet ratios, diurnal supply/demand, EWT around three
// minutes, SF surging far more often than Manhattan).
//
// The simulator is fully deterministic given a seed and never consults the
// wall clock; simulation time is integer seconds starting at a Monday
// midnight.
package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
)

// SecondsPerDay is the length of a simulated day.
const SecondsPerDay = 24 * 3600

// Hotspot is an attraction point for pickups, drop-offs, and idle cruising,
// standing in for the commercial/tourist concentrations the paper's
// heatmaps show (Times Square, the Financial District, UCSF, ...).
type Hotspot struct {
	Name   string
	Pos    geo.Point
	Weight float64 // relative share of demand originating here
	Radius float64 // spatial spread (std dev, meters)
}

// SurgeParams controls the surge engine's multiplier computation for a
// city. See surge.Engine for the update rule.
type SurgeParams struct {
	// UtilThreshold is the capacity utilization above which surge begins.
	UtilThreshold float64
	// Gain converts excess utilization into multiplier points.
	Gain float64
	// EWTRef and EWTGain add multiplier pressure when the average EWT in
	// the trailing window exceeds EWTRef seconds.
	EWTRef  float64
	EWTGain float64
	// Noise is the per-interval, per-area Gaussian noise on the raw
	// multiplier; this is what makes most surges last a single 5-minute
	// interval (Fig 13).
	Noise float64
	// NoiseCorr is the fraction of the noise shared city-wide per
	// interval (0 = fully independent areas). The paper observes that
	// SF's surge areas move in lock-step far more than Manhattan's
	// (§6: "the surge areas in SF tend to be more correlated"), which is
	// what makes the walking strategy pay off in Manhattan but not SF.
	NoiseCorr float64
	// AreaCoupling blends each area's utilization with the city-wide
	// mean before computing the multiplier (0 = fully local). High
	// coupling makes neighboring areas surge together — the second half
	// of the §6 observation above.
	AreaCoupling float64
	// MaxMultiplier caps the multiplier (paper observed 2.8 in Manhattan,
	// 4.1 in SF).
	MaxMultiplier float64
}

// CityProfile describes one measured city. The two instances (Manhattan,
// SanFrancisco) are calibrated against §4's observations.
type CityProfile struct {
	Name   string
	Origin geo.LatLng // projection anchor (center of the measurement area)

	// Region is the simulated world; MeasureRect is the area blanketed by
	// clients (Fig 3). Region extends past MeasureRect so cars can enter
	// and leave the measurement area, which the paper's edge filter and
	// move-in/move-out analysis depend on.
	Region      geo.Rect
	MeasureRect geo.Rect

	// ClientSpacing is the grid spacing for the 43 measurement clients:
	// chosen from the calibrated visibility radius (200 m in Manhattan,
	// 350 m in SF, §3.4).
	ClientSpacing float64

	// PeakDrivers is the target number of concurrently online drivers at
	// the daily peak, across all products.
	PeakDrivers int
	// FleetShare is each product's share of the fleet. Shares need not sum
	// to 1; they are normalized.
	FleetShare map[core.VehicleType]float64
	// DemandShare is each product's share of ride requests.
	DemandShare map[core.VehicleType]float64

	// PeakRequestsPerHour is the region-wide quantity demanded at the
	// weekday evening peak.
	PeakRequestsPerHour float64

	// SupplyDiurnal and DemandDiurnal scale the arrival processes by hour
	// of day (index 0 = midnight). WeekendDemandDiurnal replaces
	// DemandDiurnal on Saturday and Sunday.
	SupplyDiurnal        [24]float64
	DemandDiurnal        [24]float64
	WeekendDemandDiurnal [24]float64

	// MeanSessionMinutes is the median driver session length for low-cost
	// products; luxury products run LuxurySessionFactor times longer
	// (Fig 7 shows luxury cars live longer).
	MeanSessionMinutes  float64
	LuxurySessionFactor float64

	// Elasticity is the fraction of passengers priced out per unit of
	// surge above 1 (the paper finds a large negative demand effect).
	Elasticity float64
	// SupplyBoost is the relative increase in driver arrivals per unit of
	// surge above 1 (the paper finds a small positive supply effect).
	SupplyBoost float64

	Hotspots []Hotspot
	Surge    SurgeParams

	// SplitX and SplitY place the surge-area partition's cross point as
	// fractions of the measurement rect (defaults 0.45/0.55). Manhattan's
	// hand-drawn areas cut right through midtown, so probes sit near
	// boundaries; SF's areas were much larger than the probed region,
	// with boundaries only near the south-west (UCSF) corner — which is
	// exactly where the paper found the walking strategy to work.
	SplitX, SplitY float64

	// RoadNetwork switches the world to street-network movement: drivers
	// cruise and drive along a deterministic synthetic street graph with
	// congestion feedback instead of straight lines with a detour factor
	// (see internal/road and sim/road.go). The network is derived from
	// the city name, so every world of a city shares the same streets.
	RoadNetwork bool
	// RoadName overrides the name the street network derives from;
	// derived profiles (TaxiCity) set it to the parent city so both
	// services generate identical streets even when built standalone.
	RoadName string
}

// Rush reports whether hour (0-23) falls in the paper's rush-hour
// definition: 6am-10am or 4pm-8pm (§5.4, the Rush model).
func Rush(hour int) bool {
	return (hour >= 6 && hour < 10) || (hour >= 16 && hour < 20)
}

// Weekend reports whether simulation time t falls on Saturday or Sunday
// (time zero is Monday midnight).
func Weekend(t int64) bool {
	day := (t / SecondsPerDay) % 7
	return day == 5 || day == 6
}

// HourOfDay returns the hour (0-23) for simulation time t.
func HourOfDay(t int64) int { return int(t % SecondsPerDay / 3600) }

// demandCurve builds an hourly weight curve with morning and evening rush
// peaks. base is the overnight floor; am and pm are the rush amplitudes.
func demandCurve(base, am, pm float64) [24]float64 {
	var c [24]float64
	for h := 0; h < 24; h++ {
		w := base
		switch {
		case h >= 2 && h < 5:
			w = base * 0.5
		case h >= 6 && h < 10: // morning rush
			w = am
		case h >= 10 && h < 15:
			w = (am + base) / 2
		case h >= 15 && h < 20: // builds from 3pm through evening rush
			w = pm
		case h >= 20 && h < 24:
			w = (pm + base) / 2
		}
		c[h] = w
	}
	return c
}

// Manhattan returns the midtown Manhattan profile. Calibration targets from
// the paper: fewer Ubers than SF, surge only ~14% of the time, mean
// multiplier ~1.07, max 2.8, surge building from 3pm through evening rush on
// weekdays, weekend peaks noon-3pm, EWT ~3 minutes, significant UberT fleet.
func Manhattan() *CityProfile {
	measure := geo.NewRect(geo.Point{X: -1100, Y: -900}, geo.Point{X: 1100, Y: 900})
	region := geo.NewRect(geo.Point{X: -1700, Y: -1500}, geo.Point{X: 1700, Y: 1500})
	p := &CityProfile{
		Name:          "manhattan",
		Origin:        geo.LatLng{Lat: 40.7549, Lng: -73.9840}, // midtown
		Region:        region,
		MeasureRect:   measure,
		ClientSpacing: 280, // ≈ √2 × 200 m visibility radius
		PeakDrivers:   420,
		FleetShare: map[core.VehicleType]float64{
			core.UberX: 0.46, core.UberBLACK: 0.20, core.UberSUV: 0.12,
			core.UberXL: 0.08, core.UberT: 0.10,
			core.UberFAMILY: 0.01, core.UberPOOL: 0.01, core.UberWAV: 0.01, core.UberRUSH: 0.01,
		},
		DemandShare: map[core.VehicleType]float64{
			core.UberX: 0.62, core.UberBLACK: 0.14, core.UberSUV: 0.07,
			core.UberXL: 0.06, core.UberT: 0.08,
			core.UberFAMILY: 0.01, core.UberPOOL: 0.01, core.UberWAV: 0.005, core.UberRUSH: 0.005,
		},
		PeakRequestsPerHour:  260,
		SupplyDiurnal:        demandCurve(0.45, 0.95, 1.0),
		DemandDiurnal:        demandCurve(0.30, 0.80, 1.0),
		WeekendDemandDiurnal: weekendCurve(0.35, 1.0),
		MeanSessionMinutes:   100,
		LuxurySessionFactor:  1.8,
		Elasticity:           0.55,
		SupplyBoost:          0.10,
		Hotspots: []Hotspot{
			{Name: "Times Square", Pos: geo.Point{X: -250, Y: 250}, Weight: 0.40, Radius: 350},
			{Name: "5th Avenue", Pos: geo.Point{X: 350, Y: 150}, Weight: 0.30, Radius: 400},
			{Name: "Penn Station", Pos: geo.Point{X: -450, Y: -550}, Weight: 0.18, Radius: 300},
			{Name: "Grand Central", Pos: geo.Point{X: 700, Y: -150}, Weight: 0.12, Radius: 300},
		},
		Surge: SurgeParams{
			UtilThreshold: 0.16,
			Gain:          4.8,
			EWTRef:        260,
			EWTGain:       0.004,
			Noise:         0.18,
			NoiseCorr:     0.3,
			AreaCoupling:  0.15,
			MaxMultiplier: 3.0,
		},
	}
	return p
}

// ProfileByName returns the built-in profile a -city flag value or a
// recording header names: "manhattan" (also "mhtn", "nyc") or "sf" (also
// "sanfrancisco").
func ProfileByName(name string) (*CityProfile, error) {
	switch name {
	case "manhattan", "mhtn", "nyc":
		return Manhattan(), nil
	case "sf", "sanfrancisco":
		return SanFrancisco(), nil
	default:
		return nil, fmt.Errorf("unknown city %q (want manhattan or sf)", name)
	}
}

// SanFrancisco returns the downtown SF profile. Calibration targets: 58%
// more Ubers than Manhattan, surging the majority of the time (~57%), mean
// multiplier ~1.36, max 4.1, morning-rush surge around 2.0, a "last call"
// spike at 2am (especially weekends), larger surge areas.
func SanFrancisco() *CityProfile {
	measure := geo.NewRect(geo.Point{X: -1750, Y: -1750}, geo.Point{X: 1750, Y: 1750})
	region := geo.NewRect(geo.Point{X: -2400, Y: -2400}, geo.Point{X: 2400, Y: 2400})
	p := &CityProfile{
		Name:          "sf",
		Origin:        geo.LatLng{Lat: 37.7793, Lng: -122.4193}, // downtown SF
		Region:        region,
		MeasureRect:   measure,
		ClientSpacing: 490, // ≈ √2 × 350 m visibility radius
		PeakDrivers:   640,
		FleetShare: map[core.VehicleType]float64{
			core.UberX: 0.68, core.UberBLACK: 0.13, core.UberSUV: 0.07,
			core.UberXL:     0.06,
			core.UberFAMILY: 0.02, core.UberPOOL: 0.02, core.UberWAV: 0.01, core.UberRUSH: 0.01,
		},
		DemandShare: map[core.VehicleType]float64{
			core.UberX: 0.78, core.UberBLACK: 0.08, core.UberSUV: 0.04,
			core.UberXL:     0.06,
			core.UberFAMILY: 0.01, core.UberPOOL: 0.02, core.UberWAV: 0.005, core.UberRUSH: 0.005,
		},
		PeakRequestsPerHour:  520,
		SupplyDiurnal:        demandCurve(0.40, 1.0, 0.95),
		DemandDiurnal:        sfDemandCurve(),
		WeekendDemandDiurnal: sfWeekendCurve(),
		MeanSessionMinutes:   95,
		LuxurySessionFactor:  1.8,
		Elasticity:           0.45,
		SupplyBoost:          0.12,
		Hotspots: []Hotspot{
			{Name: "Financial District", Pos: geo.Point{X: 1100, Y: 1100}, Weight: 0.32, Radius: 500},
			{Name: "Embarcadero", Pos: geo.Point{X: 1500, Y: 500}, Weight: 0.18, Radius: 450},
			{Name: "Russian Hill", Pos: geo.Point{X: -300, Y: 1300}, Weight: 0.18, Radius: 450},
			{Name: "UCSF", Pos: geo.Point{X: -1300, Y: -1300}, Weight: 0.14, Radius: 450},
			{Name: "SoMa", Pos: geo.Point{X: 500, Y: -500}, Weight: 0.18, Radius: 600},
		},
		Surge: SurgeParams{
			UtilThreshold: 0.12,
			Gain:          4.6,
			EWTRef:        220,
			EWTGain:       0.005,
			Noise:         0.24,
			NoiseCorr:     0.85,
			AreaCoupling:  0.85,
			MaxMultiplier: 4.5,
		},
		// SF's surge areas dwarf the measured region: boundaries graze
		// only the UCSF corner.
		SplitX: 0.28,
		SplitY: 0.22,
	}
	return p
}

// weekendCurve peaks between noon and 3pm (Manhattan weekends, §4.2).
func weekendCurve(base, peak float64) [24]float64 {
	var c [24]float64
	for h := 0; h < 24; h++ {
		w := base
		switch {
		case h >= 3 && h < 7:
			w = base * 0.5
		case h >= 10 && h < 12:
			w = (base + peak) / 2
		case h >= 12 && h < 15: // tourist influx
			w = peak
		case h >= 15 && h < 22:
			w = (base + peak) / 2
		}
		c[h] = w
	}
	return c
}

// sfDemandCurve has a strong morning rush (surge ~2.0 between 6-9am
// Mon-Fri) and a localized 2am "last call" bump.
func sfDemandCurve() [24]float64 {
	c := demandCurve(0.30, 1.0, 0.85)
	c[2] = 0.85 // last call at 2am
	c[3] = 0.35
	return c
}

// sfWeekendCurve keeps the 2am last-call spike strongest on weekends
// (paper: up to 3.0 surge).
func sfWeekendCurve() [24]float64 {
	c := weekendCurve(0.35, 0.95)
	c[0] = 0.65
	c[1] = 0.75
	c[2] = 1.05 // biggest last-call effect
	c[3] = 0.40
	return c
}

// NormalizedShares returns the product shares normalized to sum to 1, in
// vehicle-type order. Missing products get share 0. The sum runs in
// vehicle-type order too: float addition is not associative, so a sum in
// map order would change the shares' last bits from call to call.
func NormalizedShares(shares map[core.VehicleType]float64) []float64 {
	out := make([]float64, core.NumVehicleTypes)
	var sum float64
	for _, vt := range core.AllVehicleTypes() {
		sum += shares[vt]
	}
	if sum == 0 {
		return out
	}
	for _, vt := range core.AllVehicleTypes() {
		out[vt] = shares[vt] / sum
	}
	return out
}

// SurgeAreas returns the city's hand-partitioned surge areas (§5.3):
// four irregular quadrants covering the measurement region, mirroring the
// paper's Figures 18 and 19 where each city's probed region resolves into
// four independent areas. The split lines are deliberately offset from the
// center so the areas have unequal sizes, like Uber's hand-drawn ones.
// Scale returns a copy of the profile with the fleet and demand targets
// multiplied by f: PeakDrivers and PeakRequestsPerHour grow together, so
// market tightness (and with it surge behaviour) is preserved while the
// world holds f× the population. Everything else — geometry, shares,
// diurnal curves, session lengths — is shared with the receiver. f ≤ 0
// or 1 returns the profile unchanged.
func (p *CityProfile) Scale(f float64) *CityProfile {
	if f <= 0 || f == 1 {
		return p
	}
	q := *p
	q.PeakDrivers = int(math.Round(float64(p.PeakDrivers) * f))
	q.PeakRequestsPerHour = p.PeakRequestsPerHour * f
	return &q
}

// TaxiCity derives a flat-fare street-hail fleet from p: the same
// geometry, hotspots, and diurnal curves, but every car is UberT, no
// surge (multiplier pinned at 1), and road movement on — the second
// service of the OpenStreetCab-style price-comparison scenario, with a
// fleet and demand the size of p's.
func (p *CityProfile) TaxiCity() *CityProfile {
	q := *p
	q.Name = p.Name + "-taxi"
	q.RoadName = p.Name
	q.FleetShare = map[core.VehicleType]float64{core.UberT: 1}
	q.DemandShare = map[core.VehicleType]float64{core.UberT: 1}
	q.Surge = SurgeParams{MaxMultiplier: 1}
	q.Elasticity = 0
	q.SupplyBoost = 0
	q.RoadNetwork = true
	return &q
}

func (p *CityProfile) SurgeAreas() []geo.Polygon {
	m := p.MeasureRect
	fx, fy := p.SplitX, p.SplitY
	if fx <= 0 || fx >= 1 {
		fx = 0.45
	}
	if fy <= 0 || fy >= 1 {
		fy = 0.55
	}
	sx := m.Min.X + fx*m.Width()
	sy := m.Min.Y + fy*m.Height()
	// Extend area boundaries to cover the whole simulated region so that
	// every car is always in exactly one area.
	r := p.Region
	return []geo.Polygon{
		// Area 0: south-west.
		{Vertices: []geo.Point{{X: r.Min.X, Y: r.Min.Y}, {X: sx, Y: r.Min.Y}, {X: sx, Y: sy}, {X: r.Min.X, Y: sy}}},
		// Area 1: south-east.
		{Vertices: []geo.Point{{X: sx, Y: r.Min.Y}, {X: r.Max.X, Y: r.Min.Y}, {X: r.Max.X, Y: sy}, {X: sx, Y: sy}}},
		// Area 2: north-west.
		{Vertices: []geo.Point{{X: r.Min.X, Y: sy}, {X: sx, Y: sy}, {X: sx, Y: r.Max.Y}, {X: r.Min.X, Y: r.Max.Y}}},
		// Area 3: north-east.
		{Vertices: []geo.Point{{X: sx, Y: sy}, {X: r.Max.X, Y: sy}, {X: r.Max.X, Y: r.Max.Y}, {X: sx, Y: r.Max.Y}}},
	}
}

// AreaOf returns the index of the surge area containing p, or -1.
func AreaOf(areas []geo.Polygon, pt geo.Point) int {
	for i, a := range areas {
		if a.Contains(pt) {
			return i
		}
	}
	return -1
}
