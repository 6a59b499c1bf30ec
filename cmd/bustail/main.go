// Command bustail follows a topic of an embedded bus directory (an
// `uberd -bus DIR`) from another process and prints events as they
// arrive — the streaming pipeline's tcpdump. With -surgemap it folds
// surge.changes into the live per-area multiplier map instead of
// printing raw events, redrawing on every change.
//
// Usage:
//
//	bustail -bus /tmp/ubus -topic sim.cars
//	bustail -bus /tmp/ubus -topic api.pings -json -n 100
//	bustail -bus /tmp/ubus -surgemap
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/surgemap"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run follows the topic until ctx is cancelled or -n events were seen and
// returns the exit code: 0, 1 when the topic cannot be opened, 2 for a
// command line it rejects.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bustail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	busDir := fs.String("bus", "", "bus directory (required)")
	topic := fs.String("topic", bus.TopicCars, "topic to follow")
	asJSON := fs.Bool("json", false, "print events as JSON lines")
	maxN := fs.Int("n", 0, "stop after this many events (0 = until interrupted)")
	poll := fs.Duration("poll", 200*time.Millisecond, "idle poll interval")
	surgeMap := fs.Bool("surgemap", false, "render the live surge map from surge.changes instead of raw events")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *busDir == "":
		fmt.Fprintln(stderr, "usage: bustail -bus DIR [-topic NAME] [-json] [-n N] | -surgemap")
		return 2
	case *maxN < 0:
		fmt.Fprintf(stderr, "bustail: -n must be >= 0 (got %d)\n", *maxN)
		return 2
	case *poll <= 0:
		// time.After(0) would turn the idle wait into a busy spin.
		fmt.Fprintf(stderr, "bustail: -poll must be > 0 (got %s)\n", *poll)
		return 2
	}
	if *surgeMap {
		*topic = bus.TopicSurge
	}

	tail, err := bus.OpenTail(*busDir, *topic)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer tail.Close()

	var lt *surgemap.LiveTail
	if *surgeMap {
		// Every city has the same surge-area count (a sim test holds it).
		lt = surgemap.NewLiveTail(len(sim.Manhattan().SurgeAreas()))
	}
	enc := json.NewEncoder(stdout)
	seen := 0
	var buf []bus.Event
	for ctx.Err() == nil && (*maxN == 0 || seen < *maxN) {
		buf = tail.Poll(buf[:0])
		if len(buf) == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*poll):
			}
			continue
		}
		redraw := false
		for _, ev := range buf {
			seen++
			switch {
			case lt != nil:
				redraw = lt.Apply(ev) || redraw
			case *asJSON:
				enc.Encode(map[string]any{
					"seq": ev.Seq, "time": ev.Time,
					"kind": ev.Kind.String(), "key": ev.Key, "area": ev.Area,
					"num": ev.Num, "str": ev.Str, "data_len": len(ev.Data),
				})
			default:
				fmt.Fprintf(stdout, "%-8d t=%-8d %-14s key=%s area=%d num=%g str=%q data=%dB\n",
					ev.Seq, ev.Time, ev.Kind, ev.Key, ev.Area, ev.Num, ev.Str, len(ev.Data))
			}
			if *maxN > 0 && seen >= *maxN {
				break
			}
		}
		if redraw {
			fmt.Fprint(stdout, lt.ASCII())
		}
	}
	return 0
}
