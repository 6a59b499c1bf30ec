package surge

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

// TestEnginePins holds every pricing regime to literal goldens: one hour
// of the shocked seed-42 Manhattan world with jitter requested. `state`
// is engineStateHash (drivers, counters, economics — so the pip the sim
// settles fares with — and cur/prev); `series` digests what the engine
// itself produced, in order: each update's API switch moment as the View
// publishes it, every SurgeChange event, and the recorded History. The
// RNG stream (city shock, per-area shocks, switch draw), smoothing, clamp
// and quantiser of a regime cannot move without moving one of the two.
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
			pr, err := NewPricer(w, name, Config{Params: p.Surge, Seed: 42, Jitter: true, KeepHistory: true})
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
			for w.Now() < 3600 {
				w.Step()
				pr.Step(w.Now())
				if v := pr.View(); v != view {
					view = v
					fmt.Fprintf(series, "switch|%d|%d\n", v.intervalStart, v.apiSwitchAt)
				}
			}
			// History is a field, not part of the Pricer contract.
			history := reflect.Indirect(reflect.ValueOf(pr)).FieldByName("History").Interface().([][]float64)
			if len(history) != 12 {
				t.Fatalf("History holds %d updates, want 12", len(history))
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
