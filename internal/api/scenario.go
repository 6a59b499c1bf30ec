package api

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/surge"
)

// Scenario names one backend the way the paper names a measurement run:
// the city, the pricing the service ran and how the world is simulated.
// Build is the one place a city name becomes a backend; commands fill a
// Scenario from their flags and harnesses derive one per run.
type Scenario struct {
	// City is a sim.ProfileByName name: "manhattan" or "sf" (or an alias).
	City string
	// Seed seeds the world and the pricing engine.
	Seed int64
	// Scale multiplies the city's driver and request targets (see
	// sim.CityProfile.Scale); 0 and 1 run the calibrated size.
	Scale float64
	// Road drives on the city's synthetic street network instead of
	// straight lines.
	Road bool
	// Engine is one of surge.EngineNames; "" selects the default.
	Engine string
	// Jitter enables the April 2015 client-stream jitter bug.
	Jitter bool
	// Workers is the world's phase-parallel tick worker count (0 =
	// GOMAXPROCS); results are identical for every value.
	Workers int
}

// Validate reports what Build would refuse: an unknown city or engine, a
// scale that is negative, NaN or infinite, or a negative worker count.
func (sc Scenario) Validate() error {
	if _, err := sim.ProfileByName(sc.City); err != nil {
		return err
	}
	if err := surge.CheckEngine(sc.Engine); err != nil {
		return err
	}
	if !(sc.Scale >= 0) || math.IsInf(sc.Scale, 1) {
		return fmt.Errorf("fleet scale %v: must be finite and not negative", sc.Scale)
	}
	if sc.Workers < 0 {
		return fmt.Errorf("workers %d: must not be negative (0 = GOMAXPROCS)", sc.Workers)
	}
	return nil
}

// Build makes the scenario's backend: the city's world, its pricing engine
// and the service over them. It panics on anything Validate rejects, so
// callers validate untrusted input first.
func (sc Scenario) Build() *Service {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	profile, _ := sim.ProfileByName(sc.City)
	profile = profile.Scale(sc.Scale)
	if sc.Road {
		profile.RoadNetwork = true
	}
	w := sim.NewWorld(sim.Config{Profile: profile, Seed: sc.Seed, Workers: sc.Workers})
	e, _ := surge.NewPricer(w, sc.Engine, surge.Config{Params: profile.Surge, Seed: sc.Seed, Jitter: sc.Jitter})
	return NewService(w, e)
}
