// Drivermap: the Partner (driver) app's view of the system — the surge
// heat map of Fig 1. A driver logs in (accepting Uber's data-collection
// agreement, which is why the paper's authors never saw this surface),
// polls the surge map through an SF evening, and gets relocation advice:
// which area currently pays the highest multiplier.
package main

import (
	"fmt"
	"log"

	"repro/internal/api"
)

func main() {
	svc := api.Scenario{City: "sf", Seed: 33}.Build()
	if err := svc.RegisterPartner("driver-007", true); err != nil {
		log.Fatal(err)
	}

	// Poll the map every 15 simulated minutes through the evening.
	svc.RunUntil(17 * 3600)
	fmt.Println("time    area0 area1 area2 area3   advice")
	for svc.Now() < 22*3600 {
		m, err := svc.PartnerMap("driver-007")
		if err != nil {
			log.Fatal(err)
		}
		best, bestM := -1, 0.0
		row := fmt.Sprintf("%02d:%02d  ", svc.Now()/3600%24, svc.Now()/60%60)
		for _, pa := range m {
			row += fmt.Sprintf(" %4.1f ", pa.Surge)
			if pa.Surge > bestM {
				best, bestM = pa.Area, pa.Surge
			}
		}
		advice := "stay put"
		if bestM > 1.2 {
			advice = fmt.Sprintf("head to area %d (%.1fx)", best, bestM)
		}
		fmt.Printf("%s  %s\n", row, advice)
		svc.RunUntil(svc.Now() + 900)
	}
}
