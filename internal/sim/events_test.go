package sim

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
)

// TestEventStreamWorkerInvariant: the emitted event stream, like the
// world itself, must be bit-for-bit identical for every worker count —
// all emission points sit in serial phases.
func TestEventStreamWorkerInvariant(t *testing.T) {
	collect := func(workers int) []bus.Event {
		w := NewWorld(Config{Profile: Manhattan(), Seed: 11, Workers: workers})
		var evs []bus.Event
		w.SetEventSink(func(ev bus.Event) { evs = append(evs, ev) })
		w.Run(3 * 3600)
		// Exercise the suspend/resume paths too.
		w.ForceOffline(core.UberX, 0, 5, 600)
		w.Run(4 * 3600)
		return evs
	}
	one := collect(1)
	four := collect(4)
	if len(one) == 0 {
		t.Fatal("no events emitted over four simulated hours")
	}
	if len(one) != len(four) {
		t.Fatalf("event counts diverge by worker count: %d vs %d", len(one), len(four))
	}
	for i := range one {
		a, b := fmt.Sprintf("%+v", one[i]), fmt.Sprintf("%+v", four[i])
		if a != b {
			t.Fatalf("event %d diverges by worker count:\n  w1: %s\n  w4: %s", i, a, b)
		}
	}
	kinds := make(map[bus.Kind]int)
	for _, ev := range one {
		kinds[ev.Kind]++
	}
	for _, k := range []bus.Kind{
		bus.KindDriverSpawn, bus.KindDriverOffline, bus.KindDriverSuspend,
		bus.KindDriverResume, bus.KindTripDispatch, bus.KindTripComplete,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in four simulated hours", k)
		}
	}
}

// TestEventCountsMatchTotals: lifecycle events must agree with the
// world's ground-truth counters.
func TestEventCountsMatchTotals(t *testing.T) {
	w := NewWorld(Config{Profile: SanFrancisco(), Seed: 4})
	// The initial population spawns inside NewWorld, before any sink can
	// attach: count deltas from here.
	spawned0, offline0, pickups0 := w.TotalSpawned, w.TotalOffline, w.TotalPickups
	kinds := make(map[bus.Kind]int64)
	w.SetEventSink(func(ev bus.Event) { kinds[ev.Kind]++ })
	w.Run(2 * 3600)
	w.TotalSpawned -= spawned0
	w.TotalOffline -= offline0
	w.TotalPickups -= pickups0
	if got, want := kinds[bus.KindDriverSpawn], w.TotalSpawned; got != want {
		t.Errorf("spawn events %d, TotalSpawned %d", got, want)
	}
	if got, want := kinds[bus.KindDriverOffline], w.TotalOffline; got != want {
		t.Errorf("offline events %d, TotalOffline %d", got, want)
	}
	if got, want := kinds[bus.KindTripDispatch], w.TotalPickups; got != want {
		t.Errorf("dispatch events %d, TotalPickups %d", got, want)
	}
}

// BenchmarkStep measures one world tick at workers=1: bare, with a
// no-op sink, and publishing every event through a real broker — the
// acceptance bound is bus publishing within 10% of bare.
func BenchmarkStep(b *testing.B) {
	run := func(b *testing.B, sink func(*testing.B) func(bus.Event)) {
		w := NewWorld(Config{Profile: Manhattan(), Seed: 2, Workers: 1})
		if sink != nil {
			w.SetEventSink(sink(b))
		}
		w.Run(3600) // warm to steady-state population
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("noop-sink", func(b *testing.B) {
		run(b, func(b *testing.B) func(bus.Event) {
			return func(bus.Event) {}
		})
	})
	b.Run("bus-publish", func(b *testing.B) {
		run(b, func(b *testing.B) func(bus.Event) {
			br, err := bus.Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { br.Close() })
			topic, err := br.Topic("sim.cars")
			if err != nil {
				b.Fatal(err)
			}
			return func(ev bus.Event) {
				if err := topic.Publish(ev); err != nil {
					b.Errorf("publish: %v", err)
				}
			}
		})
	})
}
