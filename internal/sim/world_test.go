package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func newTestWorld(t testing.TB, profile *CityProfile, seed int64) *World {
	t.Helper()
	return NewWorld(Config{Profile: profile, Seed: seed})
}

func TestWorldInitialPopulation(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 1)
	n := w.OnlineDrivers()
	// Midnight population: PeakDrivers * SupplyDiurnal[0].
	want := int(float64(w.Profile().PeakDrivers) * w.Profile().SupplyDiurnal[0])
	if n != want {
		t.Errorf("initial drivers = %d, want %d", n, want)
	}
	if w.Now() != 0 {
		t.Errorf("Now = %d, want 0", w.Now())
	}
}

func TestWorldStepAdvancesTime(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 1)
	for i := 0; i < 10; i++ {
		w.Step()
	}
	if w.Now() != 50 {
		t.Errorf("Now = %d, want 50", w.Now())
	}
	w.Run(300)
	if w.Now() != 300 {
		t.Errorf("Now = %d, want 300", w.Now())
	}
}

func TestWorldDeterminism(t *testing.T) {
	run := func() (int64, int64, int) {
		w := newTestWorld(t, SanFrancisco(), 99)
		w.Run(3600)
		return w.TotalPickups, w.TotalSpawned, w.OnlineDrivers()
	}
	p1, s1, n1 := run()
	p2, s2, n2 := run()
	if p1 != p2 || s1 != s2 || n1 != n2 {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", p1, s1, n1, p2, s2, n2)
	}
}

func TestWorldSeedsDiffer(t *testing.T) {
	w1 := newTestWorld(t, Manhattan(), 1)
	w2 := newTestWorld(t, Manhattan(), 2)
	w1.Run(3600)
	w2.Run(3600)
	if w1.TotalPickups == w2.TotalPickups && w1.TotalSpawned == w2.TotalSpawned {
		t.Error("different seeds produced identical trajectories")
	}
}

func TestPopulationTracksDiurnalCurve(t *testing.T) {
	w := newTestWorld(t, SanFrancisco(), 5)
	// Run to 4am (low) and then to noon (high).
	w.Run(4 * 3600)
	low := w.OnlineDrivers()
	w.Run(12 * 3600)
	high := w.OnlineDrivers()
	if low >= high {
		t.Errorf("population should grow from 4am (%d) to noon (%d)", low, high)
	}
	p := w.Profile()
	// Noon population should be within 35% of the steady-state target.
	want := float64(p.PeakDrivers) * p.SupplyDiurnal[12]
	if math.Abs(float64(high)-want) > want*0.35 {
		t.Errorf("noon population = %d, want ~%.0f", high, want)
	}
}

func TestPickupsHappen(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 7)
	w.Run(2 * 3600)
	if w.TotalPickups == 0 {
		t.Fatal("no pickups in 2 hours")
	}
	if w.TotalDropoffs == 0 {
		t.Fatal("no dropoffs in 2 hours")
	}
	if w.TotalDropoffs > w.TotalPickups {
		t.Errorf("dropoffs (%d) exceed pickups (%d)", w.TotalDropoffs, w.TotalPickups)
	}
}

func TestBookedCarsInvisible(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 11)
	w.Run(3600)
	idle, enroute, ontrip := w.CountByState(core.UberX)
	if enroute+ontrip == 0 {
		t.Skip("no busy cars at this instant")
	}
	// Count visible UberX cars by querying a huge k from the center.
	visible := w.NearestCars(core.UberX, geo.Point{}, 100000)
	if len(visible) != idle {
		t.Errorf("visible cars = %d, idle = %d: booked cars must be hidden", len(visible), idle)
	}
}

func TestNearestCarsOrderingAndViews(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 13)
	w.Run(600)
	pos := geo.Point{X: 0, Y: 0}
	cars := w.NearestCars(core.UberX, pos, core.MaxVisibleCars)
	if len(cars) == 0 {
		t.Fatal("no cars visible in midtown at midnight+10m")
	}
	if len(cars) > core.MaxVisibleCars {
		t.Errorf("returned %d cars, cap is %d", len(cars), core.MaxVisibleCars)
	}
	proj := w.Projection()
	prev := -1.0
	for _, c := range cars {
		if c.ID == "" {
			t.Error("car with empty session id")
		}
		d := geo.Dist(pos, proj.ToPlane(c.Pos))
		if d < prev-1e-9 {
			t.Error("cars not sorted by distance")
		}
		prev = d
		if len(c.Path) == 0 {
			t.Error("car missing path vector")
		}
	}
}

func TestSessionIDsRandomizedPerSession(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 17)
	seen := make(map[string]bool)
	w.EachDriver(func(d *Driver) {
		if seen[d.Session] {
			t.Errorf("duplicate session id %s", d.Session)
		}
		seen[d.Session] = true
	})
	// After heavy churn, total distinct session ids == TotalSpawned.
	w.Run(6 * 3600)
	if w.TotalSpawned <= int64(len(seen)) {
		t.Error("expected new drivers to have spawned")
	}
}

func TestEWTReasonableRange(t *testing.T) {
	w := newTestWorld(t, SanFrancisco(), 19)
	w.Run(12 * 3600) // noon, dense supply
	ewt := w.EWT(core.UberX, geo.Point{})
	if ewt < dispatchOverhead || ewt > maxEWTSeconds {
		t.Errorf("EWT = %v, out of [%v, %v]", ewt, dispatchOverhead, maxEWTSeconds)
	}
	// Paper: average EWT ~3 minutes in city centers. Allow 1-8 min here.
	if ewt < 60 || ewt > 480 {
		t.Errorf("EWT at noon downtown = %.0fs, want 60-480s", ewt)
	}
	// A product with no cars gives the max.
	empty := NewWorld(Config{Profile: &CityProfile{
		Name: "empty", Origin: geo.LatLng{}, Region: geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100}),
		MeasureRect:   geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100}),
		PeakDrivers:   0,
		FleetShare:    map[core.VehicleType]float64{core.UberX: 1},
		DemandShare:   map[core.VehicleType]float64{core.UberX: 1},
		SupplyDiurnal: [24]float64{}, DemandDiurnal: [24]float64{}, WeekendDemandDiurnal: [24]float64{},
		MeanSessionMinutes: 60, Hotspots: nil,
	}, Seed: 1})
	if got := empty.EWT(core.UberX, geo.Point{}); got != maxEWTSeconds {
		t.Errorf("empty world EWT = %v, want %v", got, maxEWTSeconds)
	}
}

func TestSurgeElasticityReducesDemand(t *testing.T) {
	// With a surge provider pinning multiplier 3 everywhere, pickups must
	// drop sharply compared to no surge.
	run := func(m float64) int64 {
		w := newTestWorld(t, Manhattan(), 23)
		w.SetSurgeProvider(func(int) float64 { return m })
		w.Run(2 * 3600)
		return w.TotalPickups
	}
	base := run(1.0)
	surged := run(3.0)
	if base == 0 {
		t.Fatal("no baseline pickups")
	}
	if float64(surged) > float64(base)*0.5 {
		t.Errorf("pickups under 3.0 surge = %d, want well below baseline %d", surged, base)
	}
}

func TestSurgeBoostIncreasesArrivals(t *testing.T) {
	run := func(m float64) int64 {
		w := newTestWorld(t, SanFrancisco(), 29)
		w.SetSurgeProvider(func(int) float64 { return m })
		w.Run(4 * 3600)
		return w.TotalSpawned
	}
	base := run(1.0)
	surged := run(3.0)
	// SupplyBoost 0.12 with surge 3 means ~24% more arrivals; the effect is
	// small but must be visible over 4 hours.
	if float64(surged) < float64(base)*1.05 {
		t.Errorf("spawns under surge = %d, want > 1.05x baseline %d", surged, base)
	}
}

func TestWindowStatsAccumulateAndReset(t *testing.T) {
	w := newTestWorld(t, Manhattan(), 31)
	w.Run(300)
	st := w.areaStats[0]
	if st.Ticks != 60 {
		t.Errorf("Ticks = %d, want 60 (300s / 5s)", st.Ticks)
	}
	if st.IdleCarTicks == 0 {
		t.Error("no idle car ticks accumulated")
	}
	// The EWT feature is demand-weighted: one sample per latent request.
	if st.EWTN != st.LatentDemand {
		t.Errorf("EWT sampled %d times, want one per latent request (%d)", st.EWTN, st.LatentDemand)
	}
	got := w.ConsumeWindow(0)
	if got.Ticks != st.Ticks {
		t.Error("ConsumeWindow should return the accumulated stats")
	}
	if w.areaStats[0].Ticks != 0 {
		t.Error("ConsumeWindow should reset the window")
	}
	if w.areaStats[1].Ticks != 60 {
		t.Error("other areas should be untouched")
	}
}

func TestWindowStatsAverages(t *testing.T) {
	st := WindowStats{Ticks: 10, IdleCarTicks: 50, BusyCarTicks: 20, EWTSum: 1000, EWTN: 10}
	if st.AvgIdle() != 5 {
		t.Errorf("AvgIdle = %v", st.AvgIdle())
	}
	if st.AvgBusy() != 2 {
		t.Errorf("AvgBusy = %v", st.AvgBusy())
	}
	if st.AvgEWT() != 100 {
		t.Errorf("AvgEWT = %v", st.AvgEWT())
	}
	var zero WindowStats
	if zero.AvgIdle() != 0 || zero.AvgBusy() != 0 || zero.AvgEWT() != 0 {
		t.Error("zero-window averages should be 0")
	}
}

func TestDemandShock(t *testing.T) {
	base := func() int {
		w := newTestWorld(t, Manhattan(), 37)
		w.Run(1800)
		return w.areaStats[0].LatentDemand
	}()
	shocked := func() int {
		w := newTestWorld(t, Manhattan(), 37)
		w.InjectDemandShock(0, 2.0, 1800)
		w.Run(1800)
		return w.areaStats[0].LatentDemand
	}()
	if shocked <= base {
		t.Errorf("shocked demand (%d) should exceed base (%d)", shocked, base)
	}
}

func TestDriversStayInRegion(t *testing.T) {
	w := newTestWorld(t, SanFrancisco(), 41)
	w.Run(3 * 3600)
	r := w.Profile().Region
	w.EachDriver(func(d *Driver) {
		if !r.Contains(d.Pos) {
			t.Errorf("driver %d at %v outside region", d.ID, d.Pos)
		}
	})
}

func TestUberTNeverSurged(t *testing.T) {
	// UberT requests must ignore elasticity: pin an absurd surge and check
	// UberT pickups continue.
	w := newTestWorld(t, Manhattan(), 43)
	w.SetSurgeProvider(func(int) float64 { return 10 })
	w.Run(4 * 3600)
	_, enroute, ontrip := w.CountByState(core.UberT)
	idle, _, _ := w.CountByState(core.UberT)
	if idle+enroute+ontrip == 0 {
		t.Skip("no UberT drivers online")
	}
	// With surge 10, surgeable demand is ~95% priced out but UberT demand
	// is untouched, so some UberT pickups should exist.
	if w.TotalPickups == 0 {
		t.Error("expected some pickups (UberT is surge-immune)")
	}
}

func TestDriverPathRing(t *testing.T) {
	var f fleet
	s := f.alloc()
	f.pos[s] = geo.Point{X: 1}
	f.resetPath(s)
	for i := 2; i <= 7; i++ {
		f.pos[s] = geo.Point{X: float64(i)}
		f.record(s)
	}
	pts := f.pathPoints(s, nil)
	if len(pts) != pathLen {
		t.Fatalf("len = %d, want %d", len(pts), pathLen)
	}
	// Oldest-first: 3,4,5,6,7.
	for i, p := range pts {
		if p.X != float64(i+3) {
			t.Errorf("pts[%d].X = %v, want %v", i, p.X, float64(i+3))
		}
	}
	// The materialized Driver view reads the same ring.
	var d Driver
	f.view(s, &d)
	if got := d.PathPoints(); !reflect.DeepEqual(got, pts) {
		t.Errorf("Driver.PathPoints = %v, want %v", got, pts)
	}
	// A parked car saturates the ring with one position; after that
	// record must leave the ring alone.
	for i := 0; i < pathLen; i++ {
		f.record(s)
	}
	at := f.pathPos[s]
	f.record(s)
	if f.pathPos[s] != at {
		t.Errorf("record on a saturated parked ring moved its write position %d -> %d", at, f.pathPos[s])
	}
	for _, p := range f.pathPoints(s, pts[:0]) {
		if p.X != 7 {
			t.Errorf("parked ring holds X=%v, want 7", p.X)
		}
	}
}

func TestStepToward(t *testing.T) {
	var f fleet
	s := f.alloc()
	f.pos[s] = geo.Point{X: 0, Y: 0}
	if f.stepToward(s, geo.Point{X: 10, Y: 0}, 5) {
		t.Error("should not reach in one 5m step")
	}
	if f.pos[s].X != 5 {
		t.Errorf("pos.X = %v, want 5", f.pos[s].X)
	}
	if !f.stepToward(s, geo.Point{X: 10, Y: 0}, 100) {
		t.Error("should reach with 100m step")
	}
	if f.pos[s] != (geo.Point{X: 10, Y: 0}) {
		t.Errorf("pos = %v", f.pos[s])
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const mean = 4.2
	n := 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := float64(poisson(rng, mean))
		sum += x
		sum2 += x * x
	}
	m := sum / float64(n)
	v := sum2/float64(n) - m*m
	if math.Abs(m-mean) > 0.1 {
		t.Errorf("poisson mean = %v, want %v", m, mean)
	}
	if math.Abs(v-mean) > 0.3 {
		t.Errorf("poisson variance = %v, want %v", v, mean)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestStreetSpeedPattern(t *testing.T) {
	// Weekday rush slower than weekday midday, overnight fastest.
	rush := StreetSpeed(8 * 3600)                // Monday 8am
	midday := StreetSpeed(13 * 3600)             // Monday 1pm
	night := StreetSpeed(3 * 3600)               // Monday 3am
	weekendRush := StreetSpeed(5*86400 + 8*3600) // Saturday 8am
	if !(rush < midday && midday < night) {
		t.Errorf("speed ordering wrong: rush=%v midday=%v night=%v", rush, midday, night)
	}
	if weekendRush <= rush {
		t.Errorf("weekend morning (%v) should be faster than weekday rush (%v)", weekendRush, rush)
	}
}

func TestCalendarHelpers(t *testing.T) {
	if Weekend(0) {
		t.Error("t=0 is Monday")
	}
	if !Weekend(5 * SecondsPerDay) {
		t.Error("day 5 is Saturday")
	}
	if !Weekend(6*SecondsPerDay + 3600) {
		t.Error("day 6 is Sunday")
	}
	if Weekend(7 * SecondsPerDay) {
		t.Error("day 7 wraps to Monday")
	}
	if HourOfDay(26*3600) != 2 {
		t.Errorf("HourOfDay(26h) = %d, want 2", HourOfDay(26*3600))
	}
	if !Rush(8) || !Rush(17) || Rush(12) || Rush(3) {
		t.Error("Rush hours wrong")
	}
}

func TestSurgeAreasPartitionRegion(t *testing.T) {
	for _, p := range []*CityProfile{Manhattan(), SanFrancisco()} {
		areas := p.SurgeAreas()
		// Every city has Manhattan's 4: bustail -surgemap sizes its map
		// by len(Manhattan().SurgeAreas()).
		if len(areas) != 4 {
			t.Fatalf("%s: %d areas, want 4", p.Name, len(areas))
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			pt := geo.Point{
				X: p.Region.Min.X + rng.Float64()*p.Region.Width(),
				Y: p.Region.Min.Y + rng.Float64()*p.Region.Height(),
			}
			n := 0
			for _, a := range areas {
				if a.Contains(pt) {
					n++
				}
			}
			if n > 1 {
				t.Fatalf("%s: point %v in %d areas", p.Name, pt, n)
			}
		}
	}
}

func TestAreaOf(t *testing.T) {
	p := Manhattan()
	areas := p.SurgeAreas()
	if got := AreaOf(areas, geo.Point{X: 1e9, Y: 1e9}); got != -1 {
		t.Errorf("far point area = %d, want -1", got)
	}
	c := p.MeasureRect.Center()
	if got := AreaOf(areas, c); got < 0 {
		t.Errorf("center not in any area")
	}
}

func TestNormalizedShares(t *testing.T) {
	shares := NormalizedShares(map[core.VehicleType]float64{core.UberX: 3, core.UberXL: 1})
	if math.Abs(shares[int(core.UberX)]-0.75) > 1e-9 {
		t.Errorf("UberX share = %v", shares[int(core.UberX)])
	}
	if math.Abs(shares[int(core.UberXL)]-0.25) > 1e-9 {
		t.Errorf("UberXL share = %v", shares[int(core.UberXL)])
	}
	empty := NormalizedShares(nil)
	for _, v := range empty {
		if v != 0 {
			t.Error("empty shares should be all zero")
		}
	}
}

// TestNormalizedSharesDeterministic: 5,000 calls give one bit-identical
// fleet and demand CDF per city. Summed in map order, they gave two or
// three CDFs differing in the last bits.
func TestNormalizedSharesDeterministic(t *testing.T) {
	for _, p := range []*CityProfile{Manhattan(), SanFrancisco()} {
		for name, shares := range map[string]map[core.VehicleType]float64{"fleet": p.FleetShare, "demand": p.DemandShare} {
			first := cdfOf(NormalizedShares(shares))
			for i := 0; i < 5000; i++ {
				for j, v := range cdfOf(NormalizedShares(shares)) {
					if math.Float64bits(v) != math.Float64bits(first[j]) {
						t.Fatalf("%s %s: call %d gives CDF[%d] = %v, the first gave %v", p.Name, name, i, j, v, first[j])
					}
				}
			}
		}
	}
}

func TestProfilesMatchPaperOrdering(t *testing.T) {
	m, s := Manhattan(), SanFrancisco()
	// SF has ~58% more Ubers than Manhattan.
	ratio := float64(s.PeakDrivers) / float64(m.PeakDrivers)
	if ratio < 1.3 || ratio > 1.9 {
		t.Errorf("SF/MHTN fleet ratio = %.2f, want ~1.58", ratio)
	}
	// UberX is the most common product in both; Manhattan has more
	// BLACK/SUV share than SF.
	if m.FleetShare[core.UberX] <= m.FleetShare[core.UberBLACK] {
		t.Error("Manhattan: UberX should dominate")
	}
	if m.FleetShare[core.UberBLACK] <= s.FleetShare[core.UberBLACK] {
		t.Error("Manhattan should have relatively more UberBLACK than SF")
	}
	// Manhattan has UberT; SF does not.
	if m.FleetShare[core.UberT] == 0 {
		t.Error("Manhattan needs UberT")
	}
	if s.FleetShare[core.UberT] != 0 {
		t.Error("SF should have no UberT")
	}
	// SF visibility radius, and hence client spacing, is larger.
	if s.ClientSpacing <= m.ClientSpacing {
		t.Error("SF spacing should exceed Manhattan's")
	}
}

func TestForceOfflineCompliance(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 3})
	w.Run(8 * 3600)
	before := w.OnlineDrivers()
	idle, _, _ := w.CountByState(core.UberX)
	if idle == 0 {
		t.Skip("no idle UberX")
	}
	offlineBefore, spawnedBefore := w.TotalOffline, w.TotalSpawned
	n := w.ForceOffline(core.UberX, 0, 50, 1800)
	if n == 0 {
		t.Fatal("nobody complied")
	}
	if w.OnlineDrivers() != before-n {
		t.Errorf("online = %d, want %d", w.OnlineDrivers(), before-n)
	}
	// Suspension cycles keep their own ledger: a coordinated logoff is
	// neither a driver death nor (on return) a fresh spawn.
	if w.TotalSuspended != int64(n) {
		t.Errorf("TotalSuspended = %d, want %d", w.TotalSuspended, n)
	}
	if w.TotalOffline != offlineBefore {
		t.Errorf("ForceOffline moved TotalOffline %d -> %d", offlineBefore, w.TotalOffline)
	}
	if w.TotalSpawned != spawnedBefore {
		t.Errorf("ForceOffline moved TotalSpawned %d -> %d", spawnedBefore, w.TotalSpawned)
	}
	// They return after the duration (plus a tick).
	w.Run(w.Now() + 1800 + 10)
	if got := w.OnlineDrivers(); got < before-n/2 {
		t.Errorf("drivers did not come back: %d (was %d)", got, before)
	}
	if w.TotalResumed != int64(n) {
		t.Errorf("TotalResumed = %d, want %d", w.TotalResumed, n)
	}
}

func TestForceOfflineNoIdleDrivers(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 5})
	// Ask for a product with (almost) no fleet.
	n := w.ForceOffline(core.UberRUSH, 0, 1000, 60)
	if n > 5 {
		t.Errorf("complied = %d, should be the tiny RUSH fleet at most", n)
	}
}
