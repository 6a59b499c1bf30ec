// Command uberd runs the simulated Uber backend over HTTP: the pingClient
// stream and the estimates/price + estimates/time API, complete with surge
// areas, the 5-minute surge clock, per-account rate limits, and
// (optionally) the April 2015 jitter bug.
//
// The simulation clock advances in 5-second ticks at -speedup× real time,
// so a measurement campaign (cmd/measure) can be pointed at it like the
// paper's scripts were pointed at Uber.
//
// Observability: GET /metrics serves the obs registry in Prometheus text
// format (per-endpoint request counters and latency histograms, surge and
// sim internals), and /debug/pprof/* the Go runtime profiles. Point
// cmd/loadgen at the same address to generate traffic and read back
// percentiles.
//
// Resilience: the API handler sits behind chaos.Edge — (outermost first)
// admission control (-max-inflight, shed with 503 + Retry-After), seeded
// fault injection (-chaos-*), panic recovery, and a per-request timeout
// (-request-timeout). /metrics and /debug/pprof stay outside the edge so
// the server remains observable while it is being tortured.
//
// Streaming: with -bus DIR every backend layer publishes typed events to
// an embedded broker (driver lifecycle and trips, surge multiplier moves,
// served pings, injected faults); -bus-ingest DIR additionally runs the
// live tsdb ingester in-process, growing a campaign store `analyze` can
// read — no polling campaign required. Consumers in other processes tail
// the same directory (cmd/bustail, analyze -follow). On SIGINT/SIGTERM
// the server stops ticking and serving, then drains the ingest backlog
// and flushes rows before consumer offsets.
//
// Usage:
//
//	uberd -city sf -addr :8080 -speedup 60 -jitter
//	uberd -city manhattan -road            # street-network movement + congestion
//	uberd -city sf -chaos-error 0.1 -chaos-latency 50ms -chaos-latency-prob 0.2 -max-inflight 64
//	uberd -city manhattan -bus /tmp/ubus -bus-ingest /tmp/live.tsdb
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/surge"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stderr)) }

// tickInterval is the wall-clock time between simulation ticks at the
// given speedup, floored at 1ns: a speedup too large for the clock means
// "tick as fast as the machine can", and time.NewTicker panics on zero.
func tickInterval(tickSeconds int64, speedup float64) time.Duration {
	return max(time.Duration(float64(tickSeconds)/speedup*float64(time.Second)), 1)
}

// run serves until ctx is cancelled or the process is signalled and
// returns the exit code: 0 after a clean shutdown, 1 when it could not
// serve or stream, 2 for a command line it rejects.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		city    = fs.String("city", "manhattan", "city profile: manhattan or sf")
		addr    = fs.String("addr", ":8080", "listen address")
		seed    = fs.Int64("seed", 42, "simulation seed")
		jitter  = fs.Bool("jitter", false, "enable the April 2015 client-stream jitter bug")
		speedup = fs.Float64("speedup", 60, "simulation seconds per wall-clock second")
		warmup  = fs.Int64("warmup", 600, "simulation seconds to run before serving")
		workers = fs.Int("sim-workers", 0, "parallel tick workers for the simulation (0 = GOMAXPROCS; results are identical for any value)")
		scale   = fs.Float64("fleet-scale", 1, "multiply the city's driver and request targets (load testing; 1 = calibrated size)")
		roads   = fs.Bool("road", false, "drive on the synthetic street network (A* routing, congestion feedback) instead of straight lines")
		engine  = fs.String("engine", surge.EngineNames()[0], "pricing engine: "+strings.Join(surge.EngineNames(), ", "))

		busDir    = fs.String("bus", "", "publish backend events to an embedded bus broker at this directory")
		busIngest = fs.String("bus-ingest", "", "live-ingest served pings into a tsdb campaign store at this directory (requires -bus)")
	)
	var edge chaos.Edge
	edge.Flags(fs, 5*time.Second)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "uberd: ", log.LstdFlags|log.Lmsgprefix)

	reject := func(why any) int { fmt.Fprintln(stderr, why); return 2 }
	sc := api.Scenario{City: *city, Seed: *seed, Scale: *scale, Road: *roads, Engine: *engine, Jitter: *jitter, Workers: *workers}
	if !(*speedup > 0) { // not "<= 0": NaN must be rejected too
		return reject("-speedup must be positive")
	}
	if !(*scale > 0) {
		return reject("-fleet-scale must be positive")
	}
	if err := sc.Validate(); err != nil {
		return reject(err)
	}
	if *busIngest != "" && *busDir == "" {
		return reject("-bus-ingest requires -bus")
	}
	injector, err := edge.Injector()
	if err != nil {
		return reject(err)
	}

	svc := sc.Build()
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	svc.RunUntil(*warmup)
	if injector != nil {
		logger.Printf("chaos enabled (%s)", edge.Faults)
	}

	// The bus attaches after warmup: the burn-in is not part of the
	// measured record, matching a campaign that starts against a warm
	// backend.
	var busRT *busRuntime
	if *busDir != "" {
		busRT, err = startBus(svc, injector, reg, logger, *busDir, *busIngest)
		if err != nil {
			logger.Printf("bus: %v", err)
			return 1
		}
		logger.Printf("bus at %s (ingest %q)", *busDir, *busIngest)
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)

	// Advance the simulation in real time until shutdown. The shutdown
	// path waits for tickDone so no tick publishes to a closing bus.
	ticker := time.NewTicker(tickInterval(sim.TickSeconds, *speedup))
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				svc.Step()
			case <-ctx.Done():
				return
			}
		}
	}()

	// Readiness: the shard may take traffic once the first surge epoch is
	// published and (when streaming) the bus accepts events; api.Serve
	// flips draining before the listener closes so a fronting ubergate
	// routes around this shard instead of discovering connection errors.
	ready := api.NewReadiness()
	ready.AddCheck("epoch", svc.EpochPublished)
	if busRT != nil {
		ready.AddCheck("bus", busRT.Open)
	}

	server := api.NewServer(svc, api.WithMetrics(reg))
	mux := http.NewServeMux()
	mux.Handle("/", edge.Wrap(server, injector, reg))
	mux.Handle("GET /metrics", reg.Handler())
	// Health probes bypass the edge: an injected fault must never make
	// the gateway think the shard died, and a draining shard must still
	// answer its last probes.
	mux.Handle("GET /healthz", api.Healthz(svc.Now))
	mux.Handle("GET /readyz", ready.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	logger.Printf("serving %s on %s (engine %s, seed %d, jitter %v, %gx speedup, sim t=%d)",
		svc.World().Profile().Name, *addr, svc.Engine().Name(), *seed, *jitter, *speedup, svc.Now())
	code := 0
	if err := api.Serve(ctx, &http.Server{Addr: *addr, Handler: mux}, ready, edge.Drain); err != nil {
		logger.Print(err)
		code = 1
	}
	// The rest of the shutdown, in dependency order: the listener is closed
	// (no new ping events); the tick loop exits on the same ctx (stop covers
	// a listener that never opened) and is waited for so no tick publishes
	// to a closing bus; then the bus closes and the ingest consumer drains
	// its backlog and makes rows + committed offsets durable.
	logger.Printf("shutting down (sim t=%d)", svc.Now())
	stop()
	<-tickDone
	if busRT != nil {
		busRT.shutdown(10 * time.Second)
	}
	return code
}
