package measure

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// runCampaign runs a full measurement campaign over the window and
// returns the dataset.
func runCampaign(t testing.TB, profile *sim.CityProfile, seed, start, end int64, jitter bool) (*Dataset, *client.Campaign) {
	t.Helper()
	svc := api.Scenario{City: profile.Name, Seed: seed, Jitter: jitter}.Build()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}
	ds := NewDataset(Config{
		Profile:     profile,
		Start:       start,
		End:         end,
		ClientAreas: clientAreas,
	}, len(pts))
	camp.AddSink(ds)

	svc.RunUntil(start)
	camp.RunSim(svc, end)
	ds.Close()
	return ds, camp
}

// One shared 3-hour Manhattan campaign for the cheap assertions.
var mhtnDS *Dataset

func getMHTN(t testing.TB) *Dataset {
	if mhtnDS == nil {
		mhtnDS, _ = runCampaign(t, sim.Manhattan(), 21, 0, 3*3600, false)
	}
	return mhtnDS
}

func TestSupplySeriesPlausible(t *testing.T) {
	ds := getMHTN(t)
	s := ds.SupplySeries(core.UberX)
	nonEmpty := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			nonEmpty++
			if v < 1 || v > 2000 {
				t.Errorf("supply value %v implausible", v)
			}
		}
	}
	if nonEmpty < s.Len()/2 {
		t.Errorf("only %d/%d supply buckets filled", nonEmpty, s.Len())
	}
	// UberX must outnumber UberXL (fleet shares).
	xl := ds.SupplySeries(core.UberXL)
	var sumX, sumXL, n float64
	for i := range s.Values {
		if !math.IsNaN(s.Values[i]) && !math.IsNaN(xl.Values[i]) {
			sumX += s.Values[i]
			sumXL += xl.Values[i]
			n++
		}
	}
	if n > 0 && sumX <= sumXL {
		t.Errorf("UberX supply (%v) should exceed UberXL (%v)", sumX/n, sumXL/n)
	}
}

func TestDeathSeriesBounded(t *testing.T) {
	ds := getMHTN(t)
	deaths := ds.DeathSeries(core.UberX)
	var total float64
	for _, v := range deaths.Values {
		if !math.IsNaN(v) {
			if v < 0 {
				t.Errorf("negative deaths %v", v)
			}
			total += v
		}
	}
	if total == 0 {
		t.Error("no deaths recorded in 3 hours")
	}
}

func TestEWTSamplesInRange(t *testing.T) {
	ds := getMHTN(t)
	if len(ds.EWTSamples) == 0 {
		t.Fatal("no EWT samples")
	}
	for _, v := range ds.EWTSamples[:min(1000, len(ds.EWTSamples))] {
		if v <= 0 || v > 43.1 {
			t.Errorf("EWT sample %v minutes out of range", v)
		}
	}
}

func TestSurgeSamplesQuantized(t *testing.T) {
	ds := getMHTN(t)
	if len(ds.SurgeSamples) == 0 {
		t.Fatal("no surge samples")
	}
	for _, v := range ds.SurgeSamples[:min(2000, len(ds.SurgeSamples))] {
		if v < 1 {
			t.Errorf("surge sample %v below 1", v)
		}
		got := float64(v)
		q := math.Round(got*10) / 10
		if math.Abs(q-got) > 1e-5 {
			t.Errorf("surge sample %v not on 0.1 grid", v)
		}
	}
}

func TestAreaSeriesShapes(t *testing.T) {
	ds := getMHTN(t)
	if ds.NumAreas() != 4 {
		t.Fatalf("areas = %d", ds.NumAreas())
	}
	for a := 0; a < ds.NumAreas(); a++ {
		sup := ds.AreaSupplySeries(a)
		ewt := ds.AreaEWTSeries(a)
		sur := ds.AreaSurgeSeries(a)
		if sup.Len() != 36 || ewt.Len() != 36 || sur.Len() != 36 {
			t.Fatalf("area %d: series lengths %d/%d/%d, want 36", a, sup.Len(), ewt.Len(), sur.Len())
		}
		for i, v := range sur.Values {
			if math.IsNaN(v) || v < 1 {
				t.Errorf("area %d interval %d surge %v", a, i, v)
			}
		}
	}
}

func TestLifespansCleaned(t *testing.T) {
	// Lifespans need a longer window to accumulate; reuse the 3h dataset.
	ds := getMHTN(t)
	spans := ds.Lifespans(core.UberX)
	if len(spans) == 0 {
		t.Fatal("no UberX lifespans")
	}
	for _, s := range spans {
		if s < shortLivedSeconds {
			t.Errorf("lifespan %v below cleaning threshold", s)
		}
	}
}

func TestHeatmapOutputs(t *testing.T) {
	ds := getMHTN(t)
	withEWT := 0
	for i := 0; i < client.NumClients; i++ {
		if !math.IsNaN(ds.ClientMeanEWT(i)) {
			withEWT++
			if m := ds.ClientMeanEWT(i); m <= 0 || m > 43.1 {
				t.Errorf("client %d mean EWT %v", i, m)
			}
		}
	}
	if withEWT < client.NumClients*9/10 {
		t.Errorf("only %d clients have EWT heatmap data", withEWT)
	}
	// Day-unique counts appear once a full day has elapsed; with a 3 h
	// run, Close flushes partial days.
	nonzero := 0
	for _, days := range ds.ClientCarDays {
		for _, n := range days {
			if n > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("no heatmap car counts recorded")
	}
}

func TestCleaningStats(t *testing.T) {
	ds := getMHTN(t)
	c := ds.Cleaning()
	if c.TotalCars == 0 {
		t.Fatal("no cars tracked")
	}
	if c.ShortLived != ds.ShortLived {
		t.Errorf("ShortLived mismatch: %d vs %d", c.ShortLived, ds.ShortLived)
	}
	if len(c.ObsPerCar)+c.ShortLived != c.TotalCars {
		t.Errorf("partition broken: %d surviving + %d filtered != %d total",
			len(c.ObsPerCar), c.ShortLived, c.TotalCars)
	}
	for _, n := range c.ObsPerCar {
		if n < 1 {
			t.Fatalf("surviving car with %v observations", n)
		}
	}
}

func TestCloseIdempotentEnough(t *testing.T) {
	// Close twice must not panic or duplicate day flushes unreasonably.
	ds, _ := runCampaign(t, sim.Manhattan(), 23, 0, 1800, false)
	before := len(ds.ClientCarDays[0])
	ds.Close()
	after := len(ds.ClientCarDays[0])
	if after > before+1 {
		t.Errorf("Close duplicated flushes: %d -> %d", before, after)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pingWithCar builds a minimal UberX response showing one car at pos.
func pingWithCar(now int64, carID string, pos geo.LatLng) *core.PingResponse {
	return &core.PingResponse{
		Time: now,
		Types: []core.TypeStatus{{
			Type: core.UberX, TypeName: "uberX", Surge: 1, EWTSeconds: 120,
			Cars: []core.CarView{{ID: carID, Pos: pos}},
		}},
	}
}

// interiorCar returns a wire position well inside the measurement rect, so
// a disappearance there passes the edge filter.
func interiorCar(profile *sim.CityProfile) (geo.LatLng, geo.Point) {
	r := profile.MeasureRect
	center := geo.Point{X: r.Min.X + r.Width()/2, Y: r.Min.Y + r.Height()/2}
	return geo.NewProjection(profile.Origin).ToLatLng(center), center
}

func newGapTestDataset(profile *sim.CityProfile) *Dataset {
	return NewDataset(Config{
		Profile: profile, Start: 0, End: 3600, ClientAreas: []int{0, 0},
	}, 2)
}

func deathTotal(ds *Dataset) float64 {
	var sum float64
	for _, v := range ds.DeathSeries(core.UberX).Values {
		if !math.IsNaN(v) {
			sum += v
		}
	}
	return sum
}

// TestGapSuppressesPhantomDeath is the skew the gap plumbing exists to
// prevent: a car that "disappears" because its only watcher failed to ping
// must not be counted as a death (phantom fulfilled demand).
func TestGapSuppressesPhantomDeath(t *testing.T) {
	profile := sim.Manhattan()
	carLL, clientPos := interiorCar(profile)

	// Control: the car vanishes with its watcher healthy → one death.
	ctl := newGapTestDataset(profile)
	ctl.Observe(0, clientPos, pingWithCar(5, "car-1", carLL))
	ctl.EndRound(5)
	ctl.EndRound(10)
	ctl.EndRound(15) // second consecutive miss confirms the death
	if got := deathTotal(ctl); got != 1 {
		t.Fatalf("control deaths = %v, want 1", got)
	}

	// Same disappearance, but the watcher gapped: blind miss, no death.
	ds := newGapTestDataset(profile)
	ds.Observe(0, clientPos, pingWithCar(5, "car-1", carLL))
	ds.EndRound(5)
	for _, now := range []int64{10, 15, 20} {
		ds.ObserveGap(0, clientPos, 5, nil)
		ds.EndRound(now)
	}
	if got := deathTotal(ds); got != 0 {
		t.Errorf("deaths with blind watcher = %v, want 0", got)
	}
	if ds.Gaps != 3 || ds.ClientGaps[0] != 3 {
		t.Errorf("Gaps = %d, ClientGaps[0] = %d, want 3, 3", ds.Gaps, ds.ClientGaps[0])
	}

	// A gap on some *other* client does not blind this car's watcher: the
	// death is still counted.
	other := newGapTestDataset(profile)
	other.Observe(0, clientPos, pingWithCar(5, "car-1", carLL))
	other.EndRound(5)
	for _, now := range []int64{10, 15} {
		other.ObserveGap(1, clientPos, 5, nil)
		other.EndRound(now)
	}
	if got := deathTotal(other); got != 1 {
		t.Errorf("deaths with unrelated gap = %v, want 1", got)
	}
}

// TestGapThenRecoveryKeepsCarAlive checks that a blind round does not
// advance the missed count: once the watcher recovers and the car is still
// there, tracking continues as if nothing happened.
func TestGapThenRecoveryKeepsCarAlive(t *testing.T) {
	profile := sim.Manhattan()
	carLL, clientPos := interiorCar(profile)
	ds := newGapTestDataset(profile)

	ds.Observe(0, clientPos, pingWithCar(5, "car-1", carLL))
	ds.EndRound(5)
	ds.ObserveGap(0, clientPos, 5, nil) // one blind round
	ds.EndRound(10)
	ds.Observe(0, clientPos, pingWithCar(15, "car-1", carLL)) // recovered
	ds.EndRound(15)
	// Now a real two-round disappearance: exactly one death, at the
	// post-recovery position.
	ds.EndRound(20)
	ds.EndRound(25)
	if got := deathTotal(ds); got != 1 {
		t.Errorf("deaths = %v, want 1 (gap must not double-count or lose the car)", got)
	}
}
