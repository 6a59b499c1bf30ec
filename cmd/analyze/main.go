// Command analyze replays a recorded measurement campaign (produced by
// `measure -record`) through the analysis pipeline offline, the way the
// paper's 996 GB corpus was analyzed after collection: supply/demand
// series, EWT and surge distributions, surge durations, jitter events,
// and the Table 1 forecasting fits.
//
// It reads the tsdb campaign store `measure -record DIR` writes (an old
// gzip recording is converted first: `tsdbtool convert -in X -out DIR`).
// The store is opened once; with -from/-to it is range-queried, decoding
// only the chunks overlapping the window instead of the whole campaign.
// Series are bucketed from the campaign's start time. A store with a
// damaged chunk is analyzed up to the damage, with a warning.
//
// With -follow it switches from batch to streaming: it tails a live bus
// directory (uberd -bus DIR), reports each 5-minute window as it seals,
// and prints surge/supply/EWT/demand correlations over the run.
//
// Usage:
//
//	analyze -in campaign.tsdb
//	analyze -in campaign.tsdb -from 1672531200 -to 1672617600
//	analyze -follow -bus /tmp/ubus -windows 12
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/chart"
	"repro/internal/client"
	"repro/internal/forecast"
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

// run analyzes a store (or, with -follow, streams windows until ctx is
// cancelled or -windows were sealed) and returns the exit code: 0, 1 when
// the input cannot be read, 2 for a command line it rejects.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "campaign store directory (required unless -follow)")
	from := fs.Int64("from", 0, "analyze observations at or after this campaign time (0 = start)")
	to := fs.Int64("to", 0, "analyze observations before this campaign time (0 = end)")
	follow := fs.Bool("follow", false, "stream live windows from a bus directory instead of replaying a store")
	busDir := fs.String("bus", "", "bus directory to tail (with -follow; an uberd -bus DIR)")
	windows := fs.Int("windows", 0, "with -follow: stop after this many sealed windows (0 = until interrupted)")
	poll := fs.Duration("poll", 200*time.Millisecond, "with -follow: idle poll interval")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *follow && *busDir == "":
		fmt.Fprintln(stderr, "usage: analyze -follow -bus DIR [-windows N]")
		return 2
	case *follow && *windows < 0:
		fmt.Fprintf(stderr, "analyze: -windows must be >= 0 (got %d)\n", *windows)
		return 2
	case *follow && *poll <= 0:
		// time.After(0) would turn the idle wait into a busy spin.
		fmt.Fprintf(stderr, "analyze: -poll must be > 0 (got %s)\n", *poll)
		return 2
	case *follow:
		return runFollow(ctx, *busDir, *windows, *poll, stdout, stderr)
	case *in == "":
		fmt.Fprintln(stderr, "usage: analyze -in campaign.tsdb [-from T] [-to T]")
		return 2
	case *to != 0 && *to <= *from:
		fmt.Fprintf(stderr, "analyze: -to must be after -from (got -from %d -to %d)\n", *from, *to)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	db, hdr, err := record.Open(*in)
	if err != nil {
		return fail(err)
	}
	defer db.Close()

	profile, err := sim.ProfileByName(hdr.City)
	if err != nil {
		return fail(err)
	}
	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(hdr.Clients))
	for i, p := range hdr.Clients {
		clientAreas[i] = sim.AreaOf(areas, p)
	}

	lo, hi := int64(record.MinTime), int64(record.MaxTime)
	if *from != 0 {
		lo = *from
	}
	if *to != 0 {
		hi = *to
	}
	// The buckets start on the campaign clock, hdr.Start, which the paper's
	// 5-minute intervals align to; the store's last observation bounds the
	// series and the analysis window.
	start := max(hdr.Start, lo)
	maxT := start - client.PingPeriod // an empty store: an empty window
	if _, t, ok := db.Bounds(); ok {
		maxT = t
	}
	ds := measure.NewDataset(measure.Config{
		Profile:     profile,
		Start:       start,
		End:         min(hi, maxT+measure.Interval),
		ClientAreas: clientAreas,
	}, len(hdr.Clients))

	rounds, err := record.Replay(db, hdr, lo, hi, ds)
	if errors.Is(err, record.ErrTruncated) {
		fmt.Fprintf(stderr, "warning: %v; analyzing the %d rounds before the damage\n", err, rounds)
		err = nil
	}
	if err != nil {
		return fail(err)
	}
	ds.Close()

	end := min(hi, maxT+client.PingPeriod)
	fmt.Fprintf(stdout, "recording: city=%s clients=%d rounds=%d\n", hdr.City, len(hdr.Clients), rounds)
	printSeries(stdout, ds)
	printDistributions(stdout, ds)
	printSurgeAnalysis(stdout, ds, start, end)
	printForecast(stdout, ds, start, end)
	return 0
}

func printSeries(w io.Writer, ds *measure.Dataset) {
	fmt.Fprintln(w, "\nsupply / demand (per 5-minute interval):")
	for _, vt := range measure.TrackedTypes {
		fmt.Fprintf(w, "  %-10s supply %.1f, deaths %.2f\n", vt,
			ds.SupplySeries(vt).Mean(), ds.DeathSeries(vt).Mean())
	}
	if supply := trimNaN(ds.SupplySeries(measure.TrackedTypes[0]).Values); len(supply) > 2 {
		fmt.Fprintln(w, "\nUberX supply over the recording:")
		fmt.Fprint(w, chart.Line(supply, 72, 9))
	}
	if surge := trimNaN(ds.SurgeSeries().Values); len(surge) > 2 {
		fmt.Fprintln(w, "\nmean surge over the recording:")
		fmt.Fprint(w, chart.Line(surge, 72, 9))
	}
}

// trimNaN removes the trailing never-written buckets of a generously
// sized series.
func trimNaN(xs []float64) []float64 {
	end := len(xs)
	for end > 0 && xs[end-1] != xs[end-1] {
		end--
	}
	return xs[:end]
}

func printDistributions(w io.Writer, ds *measure.Dataset) {
	if len(ds.EWTSamples) > 0 {
		c := stats.NewCDF(toF64(ds.EWTSamples))
		fmt.Fprintf(w, "\nEWT minutes: median %.2f  p90 %.2f  P(≤4min) %.1f%%\n",
			c.Median(), c.Quantile(0.9), c.At(4)*100)
	}
	if len(ds.SurgeSamples) > 0 {
		c := stats.NewCDF(toF64(ds.SurgeSamples))
		fmt.Fprintf(w, "surge: P(=1) %.1f%%  median %.2f  max %.1f\n",
			c.At(1)*100, c.Median(), c.Quantile(1))
	}
}

func printSurgeAnalysis(w io.Writer, ds *measure.Dataset, start, end int64) {
	var durations []float64
	for _, log := range ds.Changes {
		durations = append(durations, measure.SurgeDurations(log, 1, start, end)...)
	}
	if len(durations) > 0 {
		c := stats.NewCDF(durations)
		fmt.Fprintf(w, "\nsurge durations: n=%d  P(<1min) %.1f%%  P(≤5min) %.1f%%  P(≤10min) %.1f%%\n",
			len(durations), c.At(59)*100, c.At(300)*100, c.At(600)*100)
	}
	events := measure.ExtractJitter(ds.Changes)
	fmt.Fprintf(w, "jitter events: %d\n", len(events))
	if len(events) > 0 {
		counts := measure.SimultaneousJitter(events)
		alone := 0
		for _, c := range counts {
			if c == 1 {
				alone++
			}
		}
		fmt.Fprintf(w, "  observed by a single client: %.1f%%\n",
			float64(alone)/float64(len(events))*100)
	}
}

func printForecast(w io.Writer, ds *measure.Dataset, from, to int64) {
	table, samples, err := forecast.FitCityRange(ds, from, to)
	if err != nil {
		fmt.Fprintf(w, "\nforecast: %v\n", err)
		return
	}
	fmt.Fprintf(w, "\nforecasting (n=%d samples):\n", len(samples))
	for _, m := range []forecast.Model{table.Raw, table.Threshold, table.Rush} {
		if m.N == 0 {
			fmt.Fprintf(w, "  %-10s (no data)\n", m.Name)
			continue
		}
		fmt.Fprintf(w, "  %-10s R²=%.3f  θ_sd-diff=%.4f θ_ewt=%.4f θ_prev=%.3f\n",
			m.Name, m.R2, m.ThetaSDDiff, m.ThetaEWT, m.ThetaPrevSurge)
	}
}

func toF64(xs []float32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
