package surge

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
)

// runner steps a world and its engine together, as api.Service does
// without the query epoch, and records the ground-truth multipliers of
// every View the engine publishes: one per completed update.
type runner struct {
	World  *sim.World
	Engine *Engine
	Series [][]float64
}

// RunUntil advances the pair to time end.
func (r *runner) RunUntil(end int64) {
	for r.World.Now() < end {
		r.World.Step()
		v := r.Engine.View()
		r.Engine.Step(r.World.Now())
		if nv := r.Engine.View(); nv != v {
			r.Series = append(r.Series, nv.cur)
		}
	}
}

func newRunner(t testing.TB, p *sim.CityProfile, seed int64, jitter bool) *runner {
	t.Helper()
	w := sim.NewWorld(sim.Config{Profile: p, Seed: seed})
	return &runner{World: w, Engine: New(w, Config{Params: p.Surge, Seed: seed, Jitter: jitter})}
}

func TestQuantize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.3, 1}, {1.0, 1}, {1.04, 1}, {1.05, 1.1}, {1.26, 1.3},
		{2.549, 2.5}, {4.1, 4.1},
	}
	for _, c := range cases {
		if got := Quantize(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestEngineUpdatesOnFiveMinuteClock(t *testing.T) {
	r := newRunner(t, sim.SanFrancisco(), 1, false)
	r.RunUntil(3600)
	// 3600 s = 12 intervals; one update per boundary crossed.
	if got := len(r.Series); got != 12 {
		t.Errorf("updates = %d, want 12", got)
	}
	for _, snap := range r.Series {
		if len(snap) != 4 {
			t.Fatalf("snapshot covers %d areas, want 4", len(snap))
		}
		for _, m := range snap {
			if m < 1 {
				t.Errorf("multiplier %v below 1", m)
			}
			if m > r.World.Profile().Surge.MaxMultiplier {
				t.Errorf("multiplier %v above cap", m)
			}
			// Quantization: multiplier must sit on a 0.1 step.
			if q := Quantize(m); math.Abs(q-m) > 1e-9 {
				t.Errorf("multiplier %v not quantized", m)
			}
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	collect := func() []float64 {
		r := newRunner(t, sim.Manhattan(), 7, true)
		r.RunUntil(2 * 3600)
		var out []float64
		for _, snap := range r.Series {
			out = append(out, snap...)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("histories diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAPISwitchWithinInterval(t *testing.T) {
	r := newRunner(t, sim.SanFrancisco(), 3, false)
	// API switch time must fall in the first 5-40 s of the interval
	// (Fig 15: a ~35-second band).
	for i := 0; i < 20; i++ {
		r.RunUntil(r.World.Now() + 300)
		v := r.Engine.View()
		off := v.apiSwitchAt - v.intervalStart
		if off < 5 || off > 40 {
			t.Errorf("API switch offset %d s outside [5,40]", off)
		}
		for c := 0; c < 5; c++ {
			id := fmt.Sprintf("sw-%d", c)
			coff := clientSwitchAt(v.seed, id, v.intervalStart) - v.intervalStart
			if coff < 10 || coff > 130 {
				t.Errorf("client switch offset %d s outside [10,130]", coff)
			}
		}
	}
}

func TestAPIMultiplierServesPrevBeforeSwitch(t *testing.T) {
	r := newRunner(t, sim.SanFrancisco(), 5, false)
	// Run until we find an interval where cur != prev for some area.
	for i := 0; i < 400; i++ {
		r.RunUntil(r.World.Now() + 300)
		v := r.Engine.View()
		for a := 0; a < 4; a++ {
			if v.cur[a] == v.prev[a] {
				continue
			}
			before := v.APIMultiplier(a, v.intervalStart+1)
			after := v.APIMultiplier(a, v.apiSwitchAt)
			if before != v.prev[a] {
				t.Errorf("before switch: got %v, want prev %v", before, v.prev[a])
			}
			if after != v.cur[a] {
				t.Errorf("after switch: got %v, want cur %v", after, v.cur[a])
			}
			return
		}
	}
	t.Skip("no multiplier change observed (extremely unlikely)")
}

func TestJitterServesStaleMultiplier(t *testing.T) {
	r := newRunner(t, sim.SanFrancisco(), 11, true)
	found := false
	// Scan many intervals and synthetic clients for a jitter window and
	// verify the served value inside it equals the previous interval's.
	for i := 0; i < 200 && !found; i++ {
		r.RunUntil(r.World.Now() + 300)
		v := r.Engine.View()
		for c := 0; c < 43; c++ {
			id := fmt.Sprintf("client-%d", c)
			start, _ := jitterWindowFor(v.seed, id, v.intervalStart)
			if start < 0 {
				continue
			}
			for a := 0; a < 4; a++ {
				if v.cur[a] == v.prev[a] {
					continue
				}
				// Query inside the jitter window, after this client's
				// switch so that the base value would be cur.
				at := v.intervalStart + start + 1
				if at < clientSwitchAt(v.seed, id, v.intervalStart) {
					continue
				}
				got := v.ClientMultiplier(id, a, at)
				if got != v.prev[a] {
					t.Errorf("jitter at t=%d served %v, want prev %v", at, got, v.prev[a])
				}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no observable jitter event found in 200 intervals")
	}
}

func TestJitterDisabledMeansConsistentClients(t *testing.T) {
	r := newRunner(t, sim.SanFrancisco(), 13, false)
	for i := 0; i < 50; i++ {
		r.RunUntil(r.World.Now() + 300)
		v := r.Engine.View()
		// February mode: the client stream equals the API stream at every
		// instant, so any probe moment works.
		t1 := v.intervalStart + 150
		for a := 0; a < 4; a++ {
			m0 := v.ClientMultiplier("alpha", a, t1)
			m1 := v.ClientMultiplier("beta", a, t1)
			if m0 != m1 {
				t.Fatalf("clients disagree without jitter: %v vs %v", m0, m1)
			}
		}
	}
}

func TestJitterWindowProperties(t *testing.T) {
	events, total := 0, 0
	shortDur := 0
	for k := int64(0); k < 2000; k++ {
		boundary := k * 300
		for c := 0; c < 5; c++ {
			id := fmt.Sprintf("c%d", c)
			total++
			start, dur := jitterWindowFor(17, id, boundary)
			if start < 0 {
				continue
			}
			events++
			if dur < 20 || dur > 60 {
				t.Errorf("jitter duration %d outside [20,60]", dur)
			}
			if dur <= 30 {
				shortDur++
			}
			if start < 0 || start+dur > 300 {
				t.Errorf("jitter window [%d,%d) outside interval", start, start+dur)
			}
		}
	}
	rate := float64(events) / float64(total)
	if rate < 0.18 || rate > 0.32 {
		t.Errorf("jitter rate = %.3f, want ~0.25", rate)
	}
	// ~90% of events last 20-30 s.
	frac := float64(shortDur) / float64(events)
	if frac < 0.8 || frac > 0.98 {
		t.Errorf("short-duration fraction = %.3f, want ~0.9", frac)
	}
}

func TestJitterIndependentAcrossClients(t *testing.T) {
	// Count how often two specific clients jitter in the same interval;
	// with p=0.35 the expected coincidence rate is ~0.12, not ~0.35.
	both, either := 0, 0
	for k := int64(0); k < 3000; k++ {
		b := k * 300
		s1, _ := jitterWindowFor(19, "one", b)
		s2, _ := jitterWindowFor(19, "two", b)
		if s1 >= 0 || s2 >= 0 {
			either++
		}
		if s1 >= 0 && s2 >= 0 {
			both++
		}
	}
	if either == 0 {
		t.Fatal("no jitter at all")
	}
	coincidence := float64(both) / 3000
	if coincidence > 0.2 {
		t.Errorf("coincidence rate %.3f too high; jitter must be per-client", coincidence)
	}
}

func TestSurgeFrequenciesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run is slow")
	}
	measure := func(p *sim.CityProfile) (frac, mean, max float64) {
		r := newRunner(t, p, 42, false)
		n := 0
		for r.World.Now() < 2*sim.SecondsPerDay {
			r.RunUntil(r.World.Now() + 300)
			for a := 0; a < 4; a++ {
				m := r.Engine.View().CurrentMultiplier(a)
				n++
				mean += m
				if m > 1 {
					frac++
				}
				if m > max {
					max = m
				}
			}
		}
		return frac / float64(n), mean / float64(n), max
	}
	mf, mm, mx := measure(sim.Manhattan())
	sf, sm, sx := measure(sim.SanFrancisco())
	// Paper: Manhattan surges 14% of the time, SF 57%; means 1.07 vs 1.36;
	// maxima 2.8 vs 4.1. Accept generous bands around those shapes.
	if mf < 0.05 || mf > 0.30 {
		t.Errorf("Manhattan surge fraction = %.3f, want ~0.14", mf)
	}
	if sf < 0.40 || sf > 0.75 {
		t.Errorf("SF surge fraction = %.3f, want ~0.57", sf)
	}
	if sf <= mf {
		t.Errorf("SF (%.2f) must surge more than Manhattan (%.2f)", sf, mf)
	}
	if mm < 1.01 || mm > 1.20 {
		t.Errorf("Manhattan mean = %.3f, want ~1.07", mm)
	}
	if sm < 1.15 || sm > 1.55 {
		t.Errorf("SF mean = %.3f, want ~1.36", sm)
	}
	if sm <= mm {
		t.Errorf("SF mean (%.2f) must exceed Manhattan's (%.2f)", sm, mm)
	}
	if mx < 1.5 || mx > 3.01 {
		t.Errorf("Manhattan max = %.1f, want ~2.8", mx)
	}
	if sx < 2.5 || sx > 4.51 {
		t.Errorf("SF max = %.1f, want ~4.1", sx)
	}
}

func TestElasticityFeedbackDampsDemand(t *testing.T) {
	// With the engine installed, priced-out requests must appear in SF
	// (it surges most of the time).
	r := newRunner(t, sim.SanFrancisco(), 23, false)
	r.RunUntil(12 * 3600)
	if r.World.TotalPricedOut == 0 {
		t.Error("no priced-out passengers despite surge feedback")
	}
}

func TestOutOfRangeAreas(t *testing.T) {
	r := newRunner(t, sim.Manhattan(), 29, true)
	v := r.Engine.View()
	if v.APIMultiplier(-1, 0) != 1 || v.APIMultiplier(99, 0) != 1 {
		t.Error("out-of-range API multiplier should be 1")
	}
	if v.ClientMultiplier("x", -1, 0) != 1 || v.ClientMultiplier("x", 99, 0) != 1 {
		t.Error("out-of-range client multiplier should be 1")
	}
	if v.CurrentMultiplier(-1) != 1 || v.CurrentMultiplier(99) != 1 {
		t.Error("out-of-range current multiplier should be 1")
	}
}
