package api

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/surge"
)

// TestScenarioValidate holds the rule commands apply to their flags before
// Build: a known city (aliases included) and engine, a scale that is
// finite and not negative (0 runs the calibrated city), and a worker count
// that is not negative (0 is GOMAXPROCS). Build panics on everything
// Validate refuses.
func TestScenarioValidate(t *testing.T) {
	_, unknownCity := sim.ProfileByName("gotham")
	cases := []struct {
		name string
		sc   Scenario
		want string // the error's text; "" when the scenario is valid
	}{
		{"calibrated", Scenario{City: "manhattan"}, ""},
		{"nyc alias", Scenario{City: "nyc", Scale: 2}, ""},
		{"sanfrancisco alias", Scenario{City: "sanfrancisco", Engine: "withholding"}, ""},
		{"unknown city", Scenario{City: "gotham"}, unknownCity.Error()},
		{"unknown engine", Scenario{City: "sf", Engine: "nope"}, `"nope" (want one of mult2015, additive, withholding)`},
		{"negative scale", Scenario{City: "sf", Scale: -1}, "fleet scale -1: must be finite and not negative"},
		{"NaN scale", Scenario{City: "sf", Scale: math.NaN()}, "fleet scale NaN: must be finite and not negative"},
		{"+Inf scale", Scenario{City: "sf", Scale: math.Inf(1)}, "fleet scale +Inf: must be finite and not negative"},
		{"-Inf scale", Scenario{City: "sf", Scale: math.Inf(-1)}, "fleet scale -Inf: must be finite and not negative"},
		{"negative workers", Scenario{City: "sf", Workers: -1}, "workers -1: must not be negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want %q", err, tc.want)
			}
			defer func() {
				if recover() == nil {
					t.Error("Build did not panic on a scenario Validate refuses")
				}
			}()
			tc.sc.Build()
		})
	}
}

// TestScenarioBuildMatchesLayers builds each backend twice — with Build, and
// with the layer constructors that bench/ and the harnesses varying
// something a scenario does not name still call — and requires the same
// world, engine and client stream after every Step.
func TestScenarioBuildMatchesLayers(t *testing.T) {
	profiles := map[string]func() *sim.CityProfile{"manhattan": sim.Manhattan, "sf": sim.SanFrancisco}
	var cases []Scenario
	for _, city := range []string{"manhattan", "sf"} {
		for _, engine := range surge.EngineNames() {
			cases = append(cases, Scenario{City: city, Seed: 7, Scale: 1, Engine: engine, Jitter: true})
		}
	}
	cases = append(cases,
		Scenario{City: "manhattan", Seed: 8, Road: true, Workers: 2},
		Scenario{City: "sf", Seed: 9, Scale: 2, Jitter: true},
	)
	const steps = 240 // 20 simulated minutes: four surge updates
	for _, sc := range cases {
		t.Run(fmt.Sprintf("%s/%s/scale=%g/road=%v", sc.City, sc.Engine, sc.Scale, sc.Road), func(t *testing.T) {
			p := profiles[sc.City]().Scale(sc.Scale)
			p.RoadNetwork = sc.Road
			w := sim.NewWorld(sim.Config{Profile: p, Seed: sc.Seed, Workers: sc.Workers})
			e, err := surge.NewPricer(w, sc.Engine, surge.Config{Params: p.Surge, Seed: sc.Seed, Jitter: sc.Jitter})
			if err != nil {
				t.Fatal(err)
			}
			layers, built := NewService(w, e), sc.Build()
			for i := 1; i <= steps; i++ {
				layers.Step()
				built.Step()
				if got, want := backendHash(built), backendHash(layers); got != want {
					t.Fatalf("step %d: Build's backend hashes %x, the layers' %x", i, got, want)
				}
			}
		})
	}
}

// backendHash digests a backend's observable state: every driver, the
// lifetime counters and economics, the street congestion, and each area's
// multiplier on the API stream and on eight clients' streams (so the
// jitter setting counts too).
func backendHash(s *Service) uint64 {
	w := s.World()
	h := fnv.New64a()
	w.EachDriver(func(d *sim.Driver) {
		fmt.Fprintf(h, "%d|%s|%d|%v|%v|%d|%v|%v|%d|%v|%v|%v\n",
			d.ID, d.Session, d.Type, d.Pos, d.State, d.PoolRiders,
			d.Pickup, d.Dest, d.OfflineAt, d.PriceFactor, d.EarnedUSD, d.PathPoints())
	})
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%v|%v\n", w.Now(),
		w.TotalSpawned, w.TotalOffline, w.TotalSuspended, w.TotalResumed, w.TotalWithheld,
		w.TotalPickups, w.TotalDropoffs, w.TotalPricedOut, w.TotalUnmet, w.TotalPoolJoins,
		w.FareVolume, w.CommissionUSD)
	if net := w.Road(); net != nil {
		fmt.Fprintln(h, net.Cong.Factors())
	}
	v := s.Engine().View()
	for a := range w.Areas() {
		fmt.Fprintf(h, "%d|%v|%v|", a, v.CurrentMultiplier(a), v.APIMultiplier(a, w.Now()))
		for c := 0; c < 8; c++ {
			fmt.Fprintf(h, "%v|", v.ClientMultiplier(fmt.Sprintf("c%d", c), a, w.Now()))
		}
	}
	return h.Sum64()
}
