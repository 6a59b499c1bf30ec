package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/road"
)

// TestTripMatchesDrive is the property the mover seam exists for: the
// upfront estimate (fares, EWT, dispatch ETA) and the drive come from the
// same model, so the ticks advance needs to reach a target are trip's
// seconds, to within a tick — on the plane and on congested streets.
func TestTripMatchesDrive(t *testing.T) {
	for _, roads := range []bool{false, true} {
		name := "euclid"
		if roads {
			name = "road"
		}
		t.Run(name, func(t *testing.T) {
			profile := Manhattan()
			cfg := Config{Profile: profile, Seed: 11, StartTime: 17 * 3600}
			if roads {
				// A network passed in: the world never commits, so once this
				// harness stops committing the factors stay frozen.
				cfg.Road = road.ForProfile(profile.Name, profile.Region)
			}
			w := NewWorld(cfg)
			for i := 0; i < 120; i++ {
				w.Step()
				if roads {
					cfg.Road.Cong.Commit()
				}
			}
			f := &w.fleet
			rng := rand.New(rand.NewSource(5))
			dt := float64(TickSeconds)
			cars, worst := 0, 0.0
			for s := int32(0); int(s) < f.high && cars < 200; s++ {
				if !f.live[s] || DriverState(f.state[s]) != StateIdle {
					continue
				}
				cars++
				target := w.samplePlaceRand(rng)
				_, want := w.mv.trip(f.pos[s], target)
				ticks := 1
				for !w.mv.advance(s, target, dt) {
					if ticks++; ticks > 100000 {
						t.Fatalf("slot %d never reached %v", s, target)
					}
				}
				off := math.Abs(float64(ticks)*dt - want)
				if off > dt {
					t.Errorf("slot %d: drove %d ticks = %.1f s, trip estimated %.1f s", s, ticks, float64(ticks)*dt, want)
				}
				worst = math.Max(worst, off)
			}
			if cars < 200 {
				t.Fatalf("only %d idle cars", cars)
			}
			t.Logf("worst |drive - estimate| %.2f s over %d cars", worst, cars)
		})
	}
}
