// Command measure runs the paper's measurement campaign — 43 emulated
// Uber Client apps in a grid — against a backend and prints the measured
// aggregates (supply, deaths, surge distribution, EWT distribution,
// jitter events).
//
// With -addr it measures a remote uberd over HTTP at that server's pace;
// without it, it builds an in-process backend and runs at simulation
// speed.
//
// Usage:
//
//	measure -city sf -hours 24 -seed 7 -jitter
//	measure -addr http://localhost:8080 -city sf -rounds 720
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		city    = flag.String("city", "manhattan", "city profile: manhattan or sf")
		hours   = flag.Int("hours", 6, "simulation hours to measure (in-process mode)")
		seed    = flag.Int64("seed", 42, "simulation seed (in-process mode)")
		jitter  = flag.Bool("jitter", true, "April 2015 mode (in-process mode)")
		addr    = flag.String("addr", "", "remote uberd base URL; empty = in-process")
		rounds  = flag.Int("rounds", 720, "ping rounds in remote mode (1 round / 5 s)")
		recFile = flag.String("record", "", "write the raw pingClient stream to this path")
		store   = flag.String("store", record.StoreJSONL,
			"recording store: jsonl (one gzip file) or tsdb (crash-safe compressed directory)")
	)
	flag.Parse()

	profile, err := sim.ProfileByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}
	proj := geo.NewProjection(profile.Origin)

	if *addr != "" {
		remote := api.NewRemote(*addr, nil)
		camp := client.NewCampaign(remote, proj, pts)
		for _, cl := range camp.Clients {
			if err := remote.Register(cl.ID); err != nil {
				fmt.Fprintf(os.Stderr, "register %s: %v\n", cl.ID, err)
				os.Exit(1)
			}
		}
		start, err := remote.NowErr()
		if err != nil {
			fmt.Fprintf(os.Stderr, "backend unreachable: %v\n", err)
			os.Exit(1)
		}
		end := start + int64(*rounds+1)*client.PingPeriod*100 // generous series bound
		ds := measure.NewDataset(measure.Config{
			Profile: profile, Start: start, End: end, ClientAreas: clientAreas,
		}, len(pts))
		camp.AddSink(ds)
		rec := openRecorder(*store, *recFile, profile.Name, start, pts)
		if rec != nil {
			camp.AddSink(rec)
		}
		fmt.Printf("measuring remote %s (%s) for %d rounds...\n", *addr, profile.Name, *rounds)
		for i := 0; i < *rounds; i++ {
			camp.Round()
			time.Sleep(100 * time.Millisecond) // remote clock advances on its own
		}
		ds.Close()
		closeRecorder(rec, *recFile, *store)
		printSummary(ds, camp)
		return
	}

	svc := api.NewBackend(profile, *seed, *jitter)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	end := int64(*hours) * 3600
	ds := measure.NewDataset(measure.Config{
		Profile: profile, Start: 0, End: end, ClientAreas: clientAreas,
	}, len(pts))
	camp.AddSink(ds)

	rec := openRecorder(*store, *recFile, profile.Name, 0, pts)
	if rec != nil {
		camp.AddSink(rec)
	}

	fmt.Printf("measuring %s for %d simulated hours (%d clients)...\n",
		profile.Name, *hours, len(camp.Clients))
	camp.RunSim(svc, end)
	ds.Close()
	closeRecorder(rec, *recFile, *store)
	printSummary(ds, camp)
}

// openRecorder opens the -record store (nil when -record is unset),
// exiting on error.
func openRecorder(kind, path, city string, start int64, pts []geo.Point) record.CampaignWriter {
	if path == "" {
		return nil
	}
	rec, err := record.Create(kind, path,
		record.Header{City: city, Start: start, Clients: pts}, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return rec
}

func closeRecorder(rec record.CampaignWriter, path, kind string) {
	if rec == nil {
		return
	}
	if err := rec.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "recording:", err)
		os.Exit(1)
	}
	rows, _ := rec.Written()
	fmt.Printf("recorded %d rows to %s (store=%s)\n", rows, path, kind)
}

func printSummary(ds *measure.Dataset, camp *client.Campaign) {
	fmt.Printf("rounds: %d, ping errors: %d\n", camp.Rounds, camp.Errors)
	if expected := camp.Rounds * int64(len(camp.Clients)); expected > 0 && ds.Gaps > 0 {
		fmt.Printf("gaps: %d of %d expected observations (%.2f%% loss; paper lost ~2.5%%)\n",
			ds.Gaps, expected, 100*float64(ds.Gaps)/float64(expected))
	}

	supply := ds.SupplySeries(core.UberX)
	fmt.Printf("UberX supply per 5-min interval: mean %.1f\n", seriesMean(supply))
	deaths := ds.DeathSeries(core.UberX)
	fmt.Printf("UberX deaths per 5-min interval: mean %.1f\n", seriesMean(deaths))

	if len(ds.EWTSamples) > 0 {
		xs := make([]float64, len(ds.EWTSamples))
		for i, v := range ds.EWTSamples {
			xs[i] = float64(v)
		}
		c := stats.NewCDF(xs)
		fmt.Printf("EWT minutes: median %.2f, p90 %.2f, P(≤4min) %.1f%%\n",
			c.Median(), c.Quantile(0.9), c.At(4)*100)
	}
	if len(ds.SurgeSamples) > 0 {
		xs := make([]float64, len(ds.SurgeSamples))
		for i, v := range ds.SurgeSamples {
			xs[i] = float64(v)
		}
		c := stats.NewCDF(xs)
		fmt.Printf("surge: P(=1) %.1f%%, median %.2f, max %.1f\n",
			c.At(1)*100, c.Median(), c.Quantile(1))
	}
	events := measure.ExtractJitter(ds.Changes)
	fmt.Printf("jitter events detected: %d\n", len(events))
}

func seriesMean(s *stats.Series) float64 {
	var sum float64
	n := 0
	for _, v := range s.Values {
		if v == v { // not NaN
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
