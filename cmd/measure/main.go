// Command measure runs the paper's measurement campaign — 43 emulated
// Uber Client apps in a grid — against a backend and prints the measured
// aggregates (supply, deaths, surge distribution, EWT distribution,
// jitter events). With -record it also keeps the raw pingClient stream in
// a tsdb campaign store (a crash-safe, range-queryable directory) for
// cmd/analyze to replay offline.
//
// With -addr it measures a remote uberd over HTTP at that server's pace;
// without it, it builds an in-process backend and runs at simulation
// speed.
//
// Usage:
//
//	measure -city sf -hours 24 -seed 7 -jitter -record sf.tsdb
//	measure -addr http://localhost:8080 -city sf -rounds 720
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run measures until the campaign's end (or ctx is cancelled: the
// recording is still closed and the summary printed) and returns the exit
// code: 0, 1 when the backend or the recording fails, 2 for a command
// line it rejects.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		city    = fs.String("city", "manhattan", "city profile: manhattan or sf")
		hours   = fs.Float64("hours", 6, "simulation hours to measure (in-process mode)")
		seed    = fs.Int64("seed", 42, "simulation seed (in-process mode)")
		jitter  = fs.Bool("jitter", true, "April 2015 mode (in-process mode)")
		addr    = fs.String("addr", "", "remote uberd base URL; empty = in-process")
		rounds  = fs.Int("rounds", 720, "ping rounds in remote mode (1 round / 5 s)")
		recFile = fs.String("record", "", "record the raw pingClient stream into a tsdb store at this directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The campaign ends at the whole second hours×3600, which must be a
	// positive int64; for any other -hours, or -rounds < 1, it would measure
	// nothing.
	if secs := *hours * 3600; !(secs >= 1 && secs < math.MaxInt64) {
		fmt.Fprintf(stderr, "-hours %v: must be a positive, finite number of hours (at least one second, below 2^63 seconds)\n", *hours)
		return 2
	}
	if *rounds < 1 {
		fmt.Fprintf(stderr, "-rounds %d: must be at least 1\n", *rounds)
		return 2
	}
	profile, err := sim.ProfileByName(*city)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}

	// The two modes differ in the backend, the campaign's time span and
	// what paces the rounds; everything around that is shared.
	var (
		camp       *client.Campaign
		start, end int64
		banner     string
		drive      func()
	)
	if *addr != "" {
		remote := api.NewRemote(*addr, nil)
		camp = client.NewCampaign(remote, geo.NewProjection(profile.Origin), pts)
		for _, cl := range camp.Clients {
			if err := remote.Register(cl.ID); err != nil {
				fmt.Fprintf(stderr, "register %s: %v\n", cl.ID, err)
				return 1
			}
		}
		if start, err = remote.NowErr(); err != nil {
			fmt.Fprintf(stderr, "backend unreachable: %v\n", err)
			return 1
		}
		end = start + int64(*rounds+1)*client.PingPeriod*100 // generous series bound
		banner = fmt.Sprintf("measuring remote %s (%s) for %d rounds...", *addr, profile.Name, *rounds)
		drive = func() {
			for i := 0; i < *rounds && ctx.Err() == nil; i++ {
				camp.Round()
				select { // the remote clock advances on its own
				case <-ctx.Done():
				case <-time.After(100 * time.Millisecond):
				}
			}
		}
	} else {
		svc := api.Scenario{City: *city, Seed: *seed, Jitter: *jitter}.Build()
		camp = client.NewCampaign(svc, svc.World().Projection(), pts)
		camp.RegisterAll(svc)
		end = int64(*hours * 3600)
		banner = fmt.Sprintf("measuring %s for %g simulated hours (%d clients)...", profile.Name, *hours, len(camp.Clients))
		drive = func() {
			for ctx.Err() == nil && svc.Now() < end {
				svc.Step()
				camp.Round()
			}
		}
	}

	ds := measure.NewDataset(measure.Config{
		Profile: profile, Start: start, End: end, ClientAreas: clientAreas,
	}, len(pts))
	camp.AddSink(ds)
	var rec record.CampaignWriter
	if *recFile != "" {
		rec, err = record.Create(record.StoreTSDB, *recFile,
			record.Header{City: profile.Name, Start: start, Clients: pts}, nil)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		camp.AddSink(rec)
	}

	fmt.Fprintln(stdout, banner)
	drive()
	ds.Close()
	if rec != nil {
		if err := rec.Close(); err != nil {
			fmt.Fprintln(stderr, "recording:", err)
			return 1
		}
		rows, _ := rec.Written()
		fmt.Fprintf(stdout, "recorded %d rows to %s\n", rows, *recFile)
	}
	printSummary(stdout, ds, camp)
	return 0
}

func printSummary(w io.Writer, ds *measure.Dataset, camp *client.Campaign) {
	fmt.Fprintf(w, "rounds: %d, ping errors: %d\n", camp.Rounds, camp.Errors)
	if expected := camp.Rounds * int64(len(camp.Clients)); expected > 0 && ds.Gaps > 0 {
		fmt.Fprintf(w, "gaps: %d of %d expected observations (%.2f%% loss; paper lost ~2.5%%)\n",
			ds.Gaps, expected, 100*float64(ds.Gaps)/float64(expected))
	}

	supply := ds.SupplySeries(core.UberX)
	fmt.Fprintf(w, "UberX supply per 5-min interval: mean %.1f\n", supply.Mean())
	deaths := ds.DeathSeries(core.UberX)
	fmt.Fprintf(w, "UberX deaths per 5-min interval: mean %.1f\n", deaths.Mean())

	if len(ds.EWTSamples) > 0 {
		xs := make([]float64, len(ds.EWTSamples))
		for i, v := range ds.EWTSamples {
			xs[i] = float64(v)
		}
		c := stats.NewCDF(xs)
		fmt.Fprintf(w, "EWT minutes: median %.2f, p90 %.2f, P(≤4min) %.1f%%\n",
			c.Median(), c.Quantile(0.9), c.At(4)*100)
	}
	if len(ds.SurgeSamples) > 0 {
		xs := make([]float64, len(ds.SurgeSamples))
		for i, v := range ds.SurgeSamples {
			xs[i] = float64(v)
		}
		c := stats.NewCDF(xs)
		fmt.Fprintf(w, "surge: P(=1) %.1f%%, median %.2f, max %.1f\n",
			c.At(1)*100, c.Median(), c.Quantile(1))
	}
	events := measure.ExtractJitter(ds.Changes)
	fmt.Fprintf(w, "jitter events detected: %d\n", len(events))
}
