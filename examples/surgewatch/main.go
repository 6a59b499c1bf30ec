// Surgewatch: monitor every surge area of downtown San Francisco through
// the public API for a simulated day and log surge onsets, peaks, and
// durations — the §5.1/§5.2 characterization (SF surges the majority of
// the time; most surges last a single 5-minute interval).
package main

import (
	"fmt"
	"log"

	"repro/internal/api"
	"repro/internal/measure"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	svc := api.Scenario{City: "sf", Seed: 7}.Build()
	profile := svc.World().Profile()
	proj := svc.World().Projection()

	// One API probe per surge area (720 requests/hour each: within the
	// per-account rate limit).
	areas := profile.SurgeAreas()
	probes := make([]*measure.APIProbe, len(areas))
	for a := range areas {
		id := fmt.Sprintf("watch-%d", a)
		svc.Register(id)
		pt := profile.MeasureRect.Clamp(areas[a].Centroid())
		probes[a] = measure.NewAPIProbe(svc, id, proj.ToLatLng(pt))
	}

	fmt.Println("watching SF surge areas for one simulated day...")
	for svc.Now() < sim.SecondsPerDay {
		svc.Step()
		for _, p := range probes {
			p.Poll()
		}
	}

	for a, p := range probes {
		if p.Errs > 0 {
			log.Printf("area %d: %d probe errors", a, p.Errs)
		}
		durs := measure.SurgeDurations(p.Log, 1, 0, sim.SecondsPerDay)
		if len(durs) == 0 {
			fmt.Printf("area %d: no surges\n", a)
			continue
		}
		cdf := stats.NewCDF(durs)
		peak := 1.0
		for _, c := range p.Log {
			if c.To > peak {
				peak = c.To
			}
		}
		fmt.Printf("area %d: %3d surges | median %4.1f min | p90 %5.1f min | peak multiplier %.1f\n",
			a, len(durs), cdf.Median()/60, cdf.Quantile(0.9)/60, peak)
		// Print the three longest episodes with their onset times.
		fmt.Printf("         longest episode: %.0f min\n", cdf.Quantile(1)/60)
	}
}
