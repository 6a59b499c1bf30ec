package experiments

import (
	"testing"

	"repro/internal/api"
	"repro/internal/sim"
)

func TestExtCollusion(t *testing.T) {
	if testing.Short() {
		t.Skip("two backends")
	}
	c := ExtCollusion(api.Scenario{City: "sf", Seed: 11})
	if c.Complied == 0 {
		t.Fatal("no colluders")
	}
	if !c.Induced {
		t.Error("collusion failed to lift surge")
	}
}

func TestExtWaitOut(t *testing.T) {
	_, s := sharedRuns(t)
	e := ExtWaitOut(s)
	if e.Wait5.Cases == 0 {
		t.Skip("no surge onsets in window")
	}
	// Waiting must help at least sometimes (most surges are short).
	if e.Wait5.ImprovedFrac() == 0 {
		t.Error("waiting 5 minutes never improved the price")
	}
	// Longer waits clear at least as many surges.
	if e.Wait15.Cases > 0 && e.Wait15.ClearedFrac() < e.Wait5.ClearedFrac()*0.8 {
		t.Errorf("wait-15 cleared %.2f, wait-5 cleared %.2f",
			e.Wait15.ClearedFrac(), e.Wait5.ClearedFrac())
	}
}

func TestExtMarketComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("two markets")
	}
	m := ExtMarketComparison(api.Scenario{City: "sf", Seed: 5}, 8)
	if m.SurgeMeanPrice < 1 || m.DriverSetMeanPrice < 0.7 {
		t.Errorf("price levels implausible: %+v", m)
	}
	// The driver-set market disperses prices across drivers at any
	// moment; surge is uniform per area but varies over time. Both must
	// show nonzero dispersion, and the driver-set market must actually
	// trade.
	if m.DriverSetPriceStd <= 0 {
		t.Error("driver-set market has no price dispersion")
	}
	if m.SurgeMeanEWT <= 0 || m.DriverSetMeanEWT <= 0 {
		t.Error("EWT not sampled")
	}
}

func TestExtFuzzRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("two campaigns")
	}
	f := ExtFuzzRobustness(api.Scenario{City: "manhattan", Seed: 3}, 2)
	// A 25 m perturbation must not materially change what the
	// methodology measures.
	if f.SupplyRatio < 0.9 || f.SupplyRatio > 1.1 {
		t.Errorf("supply ratio = %.3f, want ~1", f.SupplyRatio)
	}
	if f.DeathRatio < 0.75 || f.DeathRatio > 1.25 {
		t.Errorf("death ratio = %.3f, want ~1", f.DeathRatio)
	}
}

func TestExtSmoothing(t *testing.T) {
	if testing.Short() {
		t.Skip("two engines")
	}
	s := ExtSmoothing(sim.SanFrancisco(), 7, 10)
	if s.RawEpisodes == 0 {
		t.Fatal("no surge episodes")
	}
	if s.SmoothedVolatility >= s.RawVolatility {
		t.Errorf("smoothing did not cut volatility: %.1f vs %.1f",
			s.SmoothedVolatility, s.RawVolatility)
	}
	if s.SmoothedEpisodes >= s.RawEpisodes {
		t.Errorf("smoothing did not merge episodes: %d vs %d",
			s.SmoothedEpisodes, s.RawEpisodes)
	}
}
