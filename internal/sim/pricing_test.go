package sim

import (
	"testing"

	"repro/internal/core"
)

func TestDriverSetPricingBasics(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 7})
	w.SetMarket(MarketDriverSet)
	w.Run(6 * 3600)
	if w.TotalPickups == 0 {
		t.Fatal("no pickups in the driver-set market")
	}
	mean, std, n := w.PriceStats()
	if n == 0 {
		t.Fatal("no price samples")
	}
	if mean < 0.7 || mean > 2.5 {
		t.Errorf("mean price factor = %.2f outside the market bounds", mean)
	}
	if std <= 0 {
		t.Error("driver-set prices should disperse")
	}
	// Factors stay within the clamp.
	w.EachDriver(func(d *Driver) {
		if d.PriceFactor < 0.7-1e-9 || d.PriceFactor > 2.5+1e-9 {
			t.Errorf("driver %d factor %v out of bounds", d.ID, d.PriceFactor)
		}
	})
}

func TestSurgePricingRecordsMultipliersPaid(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 7})
	w.SetSurgeProvider(func(int) float64 { return 1.5 })
	w.Run(2 * 3600)
	mean, _, n := w.PriceStats()
	if n == 0 {
		t.Fatal("no price samples")
	}
	// With a pinned 1.5 multiplier, surgeable pickups pay 1.5 and UberT
	// (absent in SF) none; mean must be 1.5.
	if mean < 1.45 || mean > 1.55 {
		t.Errorf("mean price = %.3f, want ~1.5", mean)
	}
}

func TestDriverSetAdaptationConvergesDispersion(t *testing.T) {
	// Adaptation should keep price dispersion bounded: after a day the
	// standard deviation stays well under the full clamp width.
	w := NewWorld(Config{Profile: Manhattan(), Seed: 9})
	w.SetMarket(MarketDriverSet)
	w.Run(SecondsPerDay)
	_, std, n := w.PriceStats()
	if n == 0 {
		t.Fatal("no samples")
	}
	if std > 0.6 {
		t.Errorf("price dispersion = %.2f, adaptation should bound it", std)
	}
}

func TestDriverSetCheapestWins(t *testing.T) {
	// In the driver-set market passengers pick the cheapest of the
	// nearby drivers, so the mean price paid sits below the mean posted
	// price (selection effect).
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 21})
	w.SetMarket(MarketDriverSet)
	w.Run(4 * 3600)
	meanPaid, _, n := w.PriceStats()
	if n == 0 {
		t.Fatal("no samples")
	}
	var postedSum float64
	var posted int
	w.EachDriver(func(d *Driver) {
		if d.Type == core.UberX && d.State == StateIdle {
			postedSum += d.PriceFactor
			posted++
		}
	})
	if posted == 0 {
		t.Skip("no idle UberX to compare")
	}
	meanPosted := postedSum / float64(posted)
	if meanPaid > meanPosted+0.05 {
		t.Errorf("mean paid %.2f exceeds mean posted %.2f; cheapest-wins broken", meanPaid, meanPosted)
	}
}
