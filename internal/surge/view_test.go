package surge

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// A View keeps answering for its own interval after the engine moves on:
// every client's multiplier and jitter window, and the API stream.
func TestViewStaysFrozen(t *testing.T) {
	p := sim.SanFrancisco()
	w := sim.NewWorld(sim.Config{Profile: p, Seed: 9, StartTime: 17 * 3600})
	e := New(w, Config{Params: p.Surge, Seed: 9, Jitter: true})
	r := &runner{World: w, Engine: e}
	r.RunUntil(18 * 3600)

	// Record the view's answers, advance the engine across several
	// updates, and check the captured view is unaffected.
	v := e.View()
	start := v.intervalStart
	type key struct {
		id string
		a  int
		dt int64
	}
	type answer struct {
		client, api float64
		jitter      bool
	}
	frozen := make(map[key]answer)
	for c := 0; c < 8; c++ {
		id := fmt.Sprintf("probe-%02d", c)
		for a := 0; a < len(w.Areas()); a++ {
			for dt := int64(0); dt < UpdatePeriod; dt += 13 {
				now := start + dt
				frozen[key{id, a, dt}] = answer{v.ClientMultiplier(id, a, now), v.APIMultiplier(a, now), v.InJitter(id, now)}
			}
		}
	}
	r.RunUntil(w.Now() + 4*UpdatePeriod)
	if e.View() == v {
		t.Fatal("engine did not publish a new view across updates")
	}
	for k, want := range frozen {
		now := start + k.dt
		if got := (answer{v.ClientMultiplier(k.id, k.a, now), v.APIMultiplier(k.a, now), v.InJitter(k.id, now)}); got != want {
			t.Fatalf("frozen view changed: %s area %d dt %d: %+v -> %+v", k.id, k.a, k.dt, want, got)
		}
	}
}

// Out-of-range areas serve multiplier 1 from a View.
func TestViewOutOfRangeAreas(t *testing.T) {
	p := sim.Manhattan()
	w := sim.NewWorld(sim.Config{Profile: p, Seed: 3})
	e := New(w, Config{Params: p.Surge, Seed: 3})
	v := e.View()
	for _, a := range []int{-1, len(w.Areas()), 99} {
		if got := v.APIMultiplier(a, w.Now()); got != 1 {
			t.Errorf("APIMultiplier(%d) = %v, want 1", a, got)
		}
		if got := v.ClientMultiplier("x", a, w.Now()); got != 1 {
			t.Errorf("ClientMultiplier(%d) = %v, want 1", a, got)
		}
	}
}
