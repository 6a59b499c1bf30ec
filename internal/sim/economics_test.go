package sim

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestFareLedgerBalances(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 3})
	w.Run(4 * 3600)
	if w.FareVolume <= 0 {
		t.Fatal("no fare volume after 4 hours")
	}
	// Commission is exactly 20% of volume.
	if math.Abs(w.CommissionUSD-w.FareVolume*CommissionRate) > 1e-6 {
		t.Errorf("commission %v != 20%% of volume %v", w.CommissionUSD, w.FareVolume)
	}
	// Driver earnings plus commission equal the volume. Earnings of
	// departed drivers are gone from the roster, so check the invariant
	// the other way: online drivers' earnings never exceed the 80% pool.
	var earned float64
	w.EachDriver(func(d *Driver) { earned += d.EarnedUSD })
	if earned > w.FareVolume*(1-CommissionRate)+1e-6 {
		t.Errorf("online drivers earned %v, exceeding the 80%% pool of %v", earned, w.FareVolume*0.8)
	}
	// Area fares sum to (nearly) the total. The shortfall comes from
	// pickups clamped exactly onto the region boundary, which sit outside
	// every area polygon under the ray-casting edge convention.
	var areaSum float64
	for _, f := range w.AreaFares {
		areaSum += f
	}
	if areaSum > w.FareVolume+1e-6 {
		t.Errorf("area fares %v exceed volume %v", areaSum, w.FareVolume)
	}
	if areaSum < w.FareVolume*0.95 {
		t.Errorf("area fares %v far below volume %v", areaSum, w.FareVolume)
	}
}

// TestAdditiveLedgerWholePips is ledger conservation with whole pips: in
// MarketAdditive the platform takes 20% of each base fare only, so the
// volume beyond commission/0.2 is exactly the pips riders paid — a whole
// number of them, one per surge-priced pickup at most. In MarketSurge the
// commission is 20% of everything, and no pip is left over.
func TestAdditiveLedgerWholePips(t *testing.T) {
	pip := (1.5 - 1) * core.DefaultFares()[core.UberX].Quote(1)
	pips := func(m Market) (n float64, pickups int64) {
		w := NewWorld(Config{Profile: Manhattan(), Seed: 7})
		w.SetSurgeProvider(func(int) float64 { return 1.5 })
		w.SetMarket(m)
		w.Run(2 * 3600)
		return (w.FareVolume - w.CommissionUSD/CommissionRate) / pip, w.TotalPickups
	}
	n, pickups := pips(MarketAdditive)
	if math.Abs(n-math.Round(n)) > 1e-6 {
		t.Errorf("additive: %.9f pips beyond commission/0.2, want a whole number", n)
	}
	if n < 1 || math.Round(n) > float64(pickups) {
		t.Errorf("additive: %.0f pips paid over %d pickups, want 1..pickups", n, pickups)
	}
	if n, _ := pips(MarketSurge); math.Abs(n) > 1e-6 {
		t.Errorf("surge: %.9f pips beyond commission/0.2, want 0", n)
	}
}

func TestSurgeRaisesFarePerTrip(t *testing.T) {
	run := func(m float64) float64 {
		w := NewWorld(Config{Profile: Manhattan(), Seed: 7})
		w.SetSurgeProvider(func(int) float64 { return m })
		w.Run(2 * 3600)
		if w.TotalPickups == 0 {
			t.Fatal("no pickups")
		}
		return w.FareVolume / float64(w.TotalPickups)
	}
	base := run(1.0)
	surged := run(2.0)
	if surged <= base*1.3 {
		t.Errorf("fare/trip under 2.0 surge = %.2f, want well above base %.2f", surged, base)
	}
}

func TestDriversEarn(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 11})
	w.Run(3 * 3600)
	earners := 0
	w.EachDriver(func(d *Driver) {
		if d.EarnedUSD > 0 {
			earners++
		}
		if d.EarnedUSD < 0 {
			t.Errorf("driver %d has negative earnings", d.ID)
		}
	})
	if earners == 0 {
		t.Error("no online driver has earned anything after 3 hours")
	}
}
