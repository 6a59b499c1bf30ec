// Quickstart: build an in-process simulated Uber backend, log in one
// emulated client, and watch the pingClient stream for a simulated hour —
// nearest cars, EWT, and the surge multiplier, exactly the fields the
// paper's measurement scripts recorded.
package main

import (
	"fmt"
	"log"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
)

func main() {
	// A Manhattan backend in April 2015 mode (jitter bug active).
	svc := api.Scenario{City: "manhattan", Seed: 42, Jitter: true}.Build()
	svc.Register("demo")

	// Stand at the center of midtown (Times Square-ish).
	loc := svc.World().Projection().ToLatLng(geo.Point{X: -250, Y: 250})

	// Fast-forward to Monday 5pm — evening rush.
	svc.RunUntil(17 * 3600)

	fmt.Println("time      cars  EWT(min)  surge")
	for i := 0; i < 12; i++ { // one snapshot per 5 simulated minutes
		resp, err := svc.PingClient("demo", loc)
		if err != nil {
			log.Fatal(err)
		}
		x := resp.Status(core.UberX)
		fmt.Printf("%02d:%02d:%02d  %4d  %8.1f  %5.2f\n",
			resp.Time/3600%24, resp.Time/60%60, resp.Time%60,
			len(x.Cars), x.EWTSeconds/60, x.Surge)
		svc.RunUntil(svc.Now() + 300)
	}

	// The API view of the same spot (no jitter, rate limited).
	prices, err := svc.EstimatePrice("demo", loc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nestimates/price:")
	for _, p := range prices {
		fmt.Printf("  %-12s surge %.2f  $%.2f-$%.2f\n", p.TypeName, p.Surge, p.LowUSD, p.HighUSD)
	}
}
