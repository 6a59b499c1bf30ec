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
// Resilience: the API handler sits behind a middleware chain (outermost
// first) of admission control (-max-inflight, shed with 503 + Retry-After),
// seeded fault injection (-chaos-*), panic recovery, and a per-request
// timeout (-request-timeout). /metrics and /debug/pprof stay outside the
// chain so the server remains observable while it is being tortured.
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

func main() {
	var (
		city    = flag.String("city", "manhattan", "city profile: manhattan or sf")
		addr    = flag.String("addr", ":8080", "listen address")
		seed    = flag.Int64("seed", 42, "simulation seed")
		jitter  = flag.Bool("jitter", false, "enable the April 2015 client-stream jitter bug")
		speedup = flag.Float64("speedup", 60, "simulation seconds per wall-clock second")
		warmup  = flag.Int64("warmup", 600, "simulation seconds to run before serving")
		workers = flag.Int("sim-workers", 0, "parallel tick workers for the simulation (0 = GOMAXPROCS; results are identical for any value)")
		scale   = flag.Float64("fleet-scale", 1, "multiply the city's driver and request targets (load testing; 1 = calibrated size)")
		roads   = flag.Bool("road", false, "drive on the synthetic street network (A* routing, congestion feedback) instead of straight lines")
		engine  = flag.String("engine", surge.EngineNames()[0], "pricing engine: "+strings.Join(surge.EngineNames(), ", "))

		chaosSeed     = flag.Int64("chaos-seed", 1, "fault-injection seed (same seed replays the same fault sequence)")
		chaosError    = flag.Float64("chaos-error", 0, "probability of answering a request with an injected 500")
		chaosReset    = flag.Float64("chaos-reset", 0, "probability of aborting a request's connection")
		chaosTruncate = flag.Float64("chaos-truncate", 0, "probability of truncating a response body")
		chaosLatProb  = flag.Float64("chaos-latency-prob", 0, "probability of delaying a request")
		chaosLatency  = flag.Duration("chaos-latency", 0, "maximum injected delay (actual delay uniform up to this)")
		maxInflight   = flag.Int("max-inflight", 0, "shed load with 503 above this many in-flight requests (0 = unlimited)")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After advertised on shed responses")
		reqTimeout    = flag.Duration("request-timeout", 5*time.Second, "per-request handler timeout (0 = header-only)")
		drain         = flag.Duration("drain", 500*time.Millisecond, "readiness-drain delay before shutdown closes the listener")

		busDir    = flag.String("bus", "", "publish backend events to an embedded bus broker at this directory")
		busIngest = flag.String("bus-ingest", "", "live-ingest served pings into a tsdb campaign store at this directory (requires -bus)")
		busDrop   = flag.Bool("bus-drop", false, "drop events instead of blocking publishers when a bus consumer falls behind")
	)
	flag.Parse()

	profile, err := sim.ProfileByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *speedup <= 0 {
		fmt.Fprintln(os.Stderr, "-speedup must be positive")
		os.Exit(2)
	}
	if *scale <= 0 {
		fmt.Fprintln(os.Stderr, "-fleet-scale must be positive")
		os.Exit(2)
	}
	profile = profile.Scale(*scale)
	if *roads {
		profile.RoadNetwork = true
	}

	if *busIngest != "" && *busDir == "" {
		fmt.Fprintln(os.Stderr, "-bus-ingest requires -bus")
		os.Exit(2)
	}

	svc, err := api.NewBackendEngine(profile, *seed, *jitter, *workers, *engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	tracer := obs.NewTracer(4096)
	svc.RunUntil(*warmup)

	chaosCfg := chaos.Config{
		Seed:         *chaosSeed,
		ErrorProb:    *chaosError,
		ResetProb:    *chaosReset,
		TruncateProb: *chaosTruncate,
		LatencyProb:  *chaosLatProb,
		Latency:      *chaosLatency,
	}
	var injector *chaos.Injector
	if chaosCfg.Enabled() {
		injector = chaos.NewInjector(chaosCfg)
		log.Printf("uberd: chaos enabled (seed %d, error %.3f, reset %.3f, truncate %.3f, latency %.3f up to %s)",
			*chaosSeed, *chaosError, *chaosReset, *chaosTruncate, *chaosLatProb, *chaosLatency)
	}

	// The bus attaches after warmup: the burn-in is not part of the
	// measured record, matching a campaign that starts against a warm
	// backend.
	var busRT *busRuntime
	if *busDir != "" {
		var err error
		busRT, err = startBus(svc, injector, reg, *busDir, *busIngest, *busDrop)
		if err != nil {
			log.Fatalf("uberd: bus: %v", err)
		}
		log.Printf("uberd: bus at %s (ingest %q, drop %v)", *busDir, *busIngest, *busDrop)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Advance the simulation in real time until shutdown. The shutdown
	// path waits for tickDone so no tick publishes to a closing bus.
	tick := svc.World().TickSeconds()
	interval := time.Duration(float64(tick) / *speedup * float64(time.Second))
	ticker := time.NewTicker(interval)
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

	// The API mounts at / with per-endpoint metrics; /metrics serves the
	// Prometheus exposition and /debug/pprof/* the runtime profiles.
	// Middleware order (outermost first): shedding rejects before any work
	// is done, fault injection sees only admitted requests, recovery turns
	// handler panics into 500s, and the timeout bounds the real handler.
	// Readiness: the shard may take traffic once the first surge epoch is
	// published and (when streaming) the bus accepts events; shutdown flips
	// draining before the listener closes so a fronting ubergate routes
	// around this shard instead of discovering connection errors.
	ready := api.NewReadiness()
	ready.AddCheck("epoch", svc.EpochPublished)
	if busRT != nil {
		ready.AddCheck("bus", busRT.Open)
	}

	var apiHandler http.Handler = api.NewServer(svc, api.WithMetrics(reg), api.WithTracer(tracer), api.WithReadiness(ready))
	apiHandler = chaos.Timeout(apiHandler, *reqTimeout, reg)
	apiHandler = chaos.Recover(apiHandler, reg)
	if injector != nil {
		apiHandler = injector.Middleware(apiHandler, reg)
	}
	apiHandler = chaos.Shed(apiHandler, *maxInflight, *retryAfter, reg)
	mux := http.NewServeMux()
	mux.Handle("/", apiHandler)
	mux.Handle("GET /metrics", reg.Handler())
	// Health probes bypass the chaos chain: an injected fault must never
	// make the gateway think the shard died, and a draining shard must
	// still answer its last probes.
	mux.Handle("GET /healthz", api.Healthz(svc.Now))
	mux.Handle("GET /readyz", ready.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	log.Printf("uberd: serving %s on %s (engine %s, seed %d, jitter %v, %gx speedup, sim t=%d)",
		profile.Name, *addr, svc.Engine().Name(), *seed, *jitter, *speedup, svc.Now())

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		// Graceful shutdown, in dependency order: fail readiness and give
		// any fronting gateway a drain window to route around us, stop the
		// tick loop (no new sim events), stop serving (no new ping events),
		// then close the bus and let the ingest consumer drain its backlog
		// and make rows + committed offsets durable.
		log.Printf("uberd: shutting down (sim t=%d)", svc.Now())
		ready.SetDraining(true)
		time.Sleep(*drain)
		<-tickDone
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("uberd: shutdown: %v", err)
		}
		if busRT != nil {
			busRT.shutdown(10 * time.Second)
		}
	}
}
