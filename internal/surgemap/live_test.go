package surgemap

import (
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/sim"
)

// TestLiveTailApply: unit semantics — fold, ignore foreign kinds and
// out-of-range areas, count changes.
func TestLiveTailApply(t *testing.T) {
	lt := NewLiveTail(3)
	if !lt.Apply(bus.Event{Time: 300, Kind: bus.KindSurgeChange, Area: 1, Num: 1.5}) {
		t.Fatal("surge change not applied")
	}
	if lt.Apply(bus.Event{Time: 310, Kind: bus.KindPing, Area: 1, Num: 9}) {
		t.Error("non-surge event applied")
	}
	if lt.Apply(bus.Event{Time: 320, Kind: bus.KindSurgeChange, Area: 7, Num: 2}) {
		t.Error("out-of-range area applied")
	}
	lt.Apply(bus.Event{Time: 600, Kind: bus.KindSurgeChange, Area: 1, Num: 2.0})
	lt.Apply(bus.Event{Time: 600, Kind: bus.KindSurgeChange, Area: 0, Num: 1.2})

	if got := lt.cur; got[0] != 1.2 || got[1] != 2.0 || got[2] != 1 {
		t.Errorf("multipliers = %v, want [1.2 2 1]", got)
	}
	if got := lt.Changes(); got[0] != 1 || got[1] != 2 || got[2] != 0 {
		t.Errorf("changes = %v, want [1 2 0]", got)
	}
	if lt.Surging() != 2 {
		t.Errorf("surging = %d, want 2", lt.Surging())
	}
	if lt.lastTime != 600 {
		t.Errorf("last time = %d, want 600", lt.lastTime)
	}
	if out := lt.ASCII(); !strings.Contains(out, "2/3 areas surging") {
		t.Errorf("ASCII missing surge summary:\n%s", out)
	}
}

// TestLiveTailFollowsEngine: end-to-end — the surge engine publishes to
// a real broker, a cross-process Tailer reads the topic, and the live
// map must agree exactly with the engine's own multipliers.
func TestLiveTailFollowsEngine(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 9}.Build()

	dir := t.TempDir()
	br, err := bus.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	topic, err := br.Topic(bus.TopicSurge)
	if err != nil {
		t.Fatal(err)
	}
	svc.Engine().SetEventSink(func(ev bus.Event) {
		if err := topic.Publish(ev); err != nil {
			t.Errorf("publish: %v", err)
		}
	})

	svc.RunUntil(4 * 3600) // enough 5-minute boundaries for real movement
	if err := br.Sync(); err != nil {
		t.Fatal(err)
	}

	tail, err := bus.OpenTail(dir, bus.TopicSurge)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	numAreas := len(profile.SurgeAreas())
	lt := NewLiveTail(numAreas)
	applied := 0
	for _, ev := range tail.Poll(nil) {
		if lt.Apply(ev) {
			applied++
		}
	}
	if applied == 0 {
		t.Fatal("no surge changes published over four simulated hours")
	}
	for a := 0; a < numAreas; a++ {
		if got, want := lt.cur[a], svc.Engine().View().CurrentMultiplier(a); got != want {
			t.Errorf("area %d: live map %.2f, engine %.2f", a, got, want)
		}
	}
}
