package surge

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// TestEnginePins holds every pricing regime to literal goldens: one hour
// of the shocked seed-42 Manhattan world with jitter requested. `state`
// is engineStateHash (drivers, counters, economics — so the pip the sim
// settles fares with — and cur/prev); `series` digests what the engine
// itself produced, in order: each update's API switch moment as the View
// publishes it, every SurgeChange event, and each published View's
// multipliers. The RNG stream (city shock, per-area shocks, switch draw),
// smoothing, clamp and quantiser of a regime cannot move without moving
// one of the two.
func TestEnginePins(t *testing.T) {
	golden := map[string]struct{ state, series uint64 }{
		"mult2015":    {0x5d561f1a35fa1999, 0xf6e51b728b5a26f2},
		"additive":    {0xa48aa3da17e29df5, 0x0c8e73d5f96bc3c0},
		"withholding": {0xcb7ba6eb54229377, 0x263fd75929b11099},
	}
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			p := sim.Manhattan()
			w := sim.NewWorld(sim.Config{Profile: p, Seed: 42})
			pr, err := NewPricer(w, name, Config{Params: p.Surge, Seed: 42, Jitter: true})
			if err != nil {
				t.Fatal(err)
			}
			w.InjectDemandShock(0, 8, 4*3600)
			w.InjectDemandShock(2, 8, 4*3600)

			series := fnv.New64a()
			pr.SetEventSink(func(ev bus.Event) {
				fmt.Fprintf(series, "event|%d|%d|%s|%d|%v\n", ev.Time, ev.Kind, ev.Key, ev.Area, ev.Num)
			})
			view := pr.View()
			fmt.Fprintf(series, "switch|%d|%d\n", view.intervalStart, view.apiSwitchAt)
			var history [][]float64 // each published View's multipliers
			for w.Now() < 3600 {
				w.Step()
				pr.Step(w.Now())
				if v := pr.View(); v != view {
					view = v
					fmt.Fprintf(series, "switch|%d|%d\n", v.intervalStart, v.apiSwitchAt)
					history = append(history, v.cur)
				}
			}
			if len(history) != 12 {
				t.Fatalf("%d Views published, want 12", len(history))
			}
			for i, snap := range history {
				fmt.Fprintf(series, "history|%d|%v\n", i, snap)
			}

			want := golden[name]
			if got := engineStateHash(w, pr); got != want.state {
				t.Errorf("state hash %#x, want %#x", got, want.state)
			}
			if got := series.Sum64(); got != want.series {
				t.Errorf("series hash %#x, want %#x", got, want.series)
			}
		})
	}
}

// TestDriverSetPins holds the one market no engine selects,
// sim.MarketDriverSet, to literal goldens: Manhattan at four times the
// fleet, seed 42, TestEnginePins' shocks, one hour, no engine (the
// default provider pins surge at 1). `state` is driverSetHashes' drivers
// — self-set price factors included — and counters; `economics` is what
// the market charged and paid.
func TestDriverSetPins(t *testing.T) {
	const wantState, wantEconomics = 0x1b1c0e626f5556d0, 0x399e0b43a1b065d9
	w := sim.NewWorld(sim.Config{Profile: sim.Manhattan().Scale(4), Seed: 42})
	w.SetMarket(sim.MarketDriverSet)
	w.InjectDemandShock(0, 8, 4*3600)
	w.InjectDemandShock(2, 8, 4*3600)
	w.Run(3600)
	if w.TotalPickups == 0 {
		t.Fatal("no pickups: the market settled nothing")
	}
	state, economics := driverSetHashes(w)
	if state != wantState {
		t.Errorf("state hash %#x, want %#x", state, wantState)
	}
	if economics != wantEconomics {
		t.Errorf("economics hash %#x, want %#x", economics, wantEconomics)
	}
}

// driverSetHashes digests a world's end state in two halves: state is
// every driver column but earnings, and every lifetime counter; economics
// is each driver's earnings, the fare volume, commission, area fares and
// the price-paid statistics.
func driverSetHashes(w *sim.World) (state, economics uint64) {
	s, e := fnv.New64a(), fnv.New64a()
	w.EachDriver(func(d *sim.Driver) {
		fmt.Fprintf(s, "%d|%s|%d|%v|%v|%d|%v|%v|%d|%d|%v\n",
			d.ID, d.Session, d.Type, d.Pos, d.State, d.PoolRiders,
			d.Pickup, d.Dest, d.OfflineAt, int64(d.PriceFactor*1e9), d.PathPoints())
		fmt.Fprintf(e, "earned|%d|%v\n", d.ID, d.EarnedUSD)
	})
	fmt.Fprintf(s, "counters|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		w.TotalSpawned, w.TotalOffline, w.TotalSuspended, w.TotalResumed, w.TotalWithheld,
		w.TotalPickups, w.TotalDropoffs, w.TotalPricedOut, w.TotalUnmet, w.TotalPoolJoins)
	mean, std, n := w.PriceStats()
	fmt.Fprintf(e, "economics|%v|%v|%v|%v|%v|%d\n", w.FareVolume, w.CommissionUSD, w.AreaFares, mean, std, n)
	return s.Sum64(), e.Sum64()
}
