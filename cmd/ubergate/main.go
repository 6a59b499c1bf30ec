// Command ubergate is the multi-city shard gateway: it fronts N uberd
// shards (each owning one city world) and routes requests by GPS to the
// shard responsible for that region, health-checking every shard and
// degrading gracefully when one dies — same-region traffic reroutes to a
// surviving replica, a region with no survivors is shed with
// 503 + Retry-After (never answered from the wrong city), and the fan-in
// /metrics keeps serving with the missing shard labeled.
//
// Shards are declared as region=baseURL pairs; regions are the city
// profiles (manhattan, sf). Several shards may share a region (replicas
// of the same city world); GPS cells split across them by rendezvous
// hashing, deterministically across gateway restarts.
//
// Chaos applies to the gateway itself too: the same -chaos-* fault
// injection, -max-inflight admission control, and -request-timeout
// middleware chain as uberd, wrapped around the forwarding surface only —
// /metrics, /healthz, and /readyz stay outside so the gateway remains
// observable while being tortured. Deadlines propagate: the remaining
// request budget travels to the shard as X-Request-Deadline-Ms and the
// shard clamps its own handler timeout to it.
//
// Usage:
//
//	uberd -city sf -addr 127.0.0.1:18081 &
//	uberd -city manhattan -addr 127.0.0.1:18082 &
//	uberd -city manhattan -addr 127.0.0.1:18083 &
//	ubergate -addr :8090 \
//	  -shards sf=http://127.0.0.1:18081,manhattan=http://127.0.0.1:18082,manhattan=http://127.0.0.1:18083
//	loadgen -gateway -addr http://localhost:8090 -clients 12 -duration 10s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/gate"
	"repro/internal/obs"
	"repro/internal/sim"
)

// cityRegion resolves a city name to its routing region spec.
func cityRegion(name string) (gate.RegionSpec, error) {
	p, err := sim.ProfileByName(name)
	if err != nil {
		return gate.RegionSpec{}, err
	}
	return gate.RegionSpec{Name: p.Name, Origin: p.Origin, Rect: p.Region}, nil
}

// parseShards parses "region=url,region=url,..." into specs, naming
// shards region-0, region-1, ... in declaration order.
func parseShards(arg string) ([]gate.RegionSpec, []gate.ShardSpec, error) {
	var regions []gate.RegionSpec
	seen := make(map[string]int) // region name -> replica count
	var shards []gate.ShardSpec
	for _, entry := range strings.Split(arg, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		city, url, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad shard %q (want city=baseURL)", entry)
		}
		spec, err := cityRegion(city)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := seen[spec.Name]; !ok {
			regions = append(regions, spec)
		}
		shards = append(shards, gate.ShardSpec{
			Name:    fmt.Sprintf("%s-%d", spec.Name, seen[spec.Name]),
			Region:  spec.Name,
			BaseURL: strings.TrimRight(url, "/"),
		})
		seen[spec.Name]++
	}
	if len(shards) == 0 {
		return nil, nil, errors.New("no shards configured (-shards)")
	}
	return regions, shards, nil
}

// applyFailovers parses "region=region,..." onto the region specs.
func applyFailovers(regions []gate.RegionSpec, arg string) error {
	for _, entry := range strings.Split(arg, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		from, to, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("bad failover %q (want region=region)", entry)
		}
		found := false
		for i := range regions {
			if regions[i].Name == from {
				regions[i].Failover = to
				found = true
			}
		}
		if !found {
			return fmt.Errorf("failover source region %q has no shards", from)
		}
	}
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", ":8090", "listen address")
		shardsArg  = flag.String("shards", "", "comma-separated city=baseURL shard list (required; repeat a city for replicas)")
		failovers  = flag.String("failover", "", "comma-separated region=region static failover map (optional)")
		healthIvl  = flag.Duration("health-interval", 500*time.Millisecond, "active health-check period per shard")
		healthTmo  = flag.Duration("health-timeout", 0, "per-probe timeout (default: the interval)")
		failThresh = flag.Int("fail-threshold", 2, "consecutive failed probes before a shard is marked down")
		fwdTimeout = flag.Duration("forward-timeout", 5*time.Second, "per-forwarded-request budget (clamped by the caller's propagated deadline)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After advertised on shed responses")

		chaosSeed     = flag.Int64("chaos-seed", 1, "fault-injection seed")
		chaosError    = flag.Float64("chaos-error", 0, "probability of answering a request with an injected 500")
		chaosReset    = flag.Float64("chaos-reset", 0, "probability of aborting a request's connection")
		chaosTruncate = flag.Float64("chaos-truncate", 0, "probability of truncating a response body")
		chaosLatProb  = flag.Float64("chaos-latency-prob", 0, "probability of delaying a request")
		chaosLatency  = flag.Duration("chaos-latency", 0, "maximum injected delay")
		maxInflight   = flag.Int("max-inflight", 0, "shed load with 503 above this many in-flight requests (0 = unlimited)")
		reqTimeout    = flag.Duration("request-timeout", 10*time.Second, "per-request handler timeout at the gateway (0 = header-only)")
		drain         = flag.Duration("drain", 500*time.Millisecond, "readiness-drain delay before shutdown closes the listener")
	)
	flag.Parse()

	if *shardsArg == "" {
		fmt.Fprintln(os.Stderr, "-shards is required, e.g. -shards sf=http://127.0.0.1:18081,manhattan=http://127.0.0.1:18082")
		os.Exit(2)
	}
	regions, shards, err := parseShards(*shardsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := applyFailovers(regions, *failovers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	g, err := gate.NewGateway(gate.Config{
		Regions:        regions,
		Shards:         shards,
		HealthInterval: *healthIvl,
		HealthTimeout:  *healthTmo,
		FailThreshold:  *failThresh,
		ForwardTimeout: *fwdTimeout,
		RetryAfter:     *retryAfter,
		Registry:       reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	g.Start()
	defer g.Close()

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
		log.Printf("ubergate: chaos enabled (seed %d, error %.3f, reset %.3f, truncate %.3f, latency %.3f up to %s)",
			*chaosSeed, *chaosError, *chaosReset, *chaosTruncate, *chaosLatProb, *chaosLatency)
	}

	// Same middleware order as uberd (outermost first): shed before any
	// work, inject faults on admitted requests, recover panics, bound the
	// forward by the per-request budget. Health and metrics stay outside.
	var h http.Handler = g.APIHandler()
	h = chaos.Timeout(h, *reqTimeout, reg)
	h = chaos.Recover(h, reg)
	if injector != nil {
		h = injector.Middleware(h, reg)
	}
	h = chaos.Shed(h, *maxInflight, *retryAfter, reg)
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("GET /metrics", g.MetricsHandler())
	mux.Handle("GET /healthz", api.Healthz(nil))
	mux.Handle("GET /readyz", g.Readiness().Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: *addr, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	for _, s := range g.Shards() {
		log.Printf("ubergate: shard %s (%s) -> %s alive=%v ready=%v",
			s.Name, s.Region, s.BaseURL, s.Alive(), s.Ready())
	}
	log.Printf("ubergate: serving %d shards on %s (health every %s, fail threshold %d)",
		len(g.Shards()), *addr, *healthIvl, *failThresh)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		// Fail readiness first so an upstream balancer (or a prober of
		// our own /readyz) stops sending work, then close the listener.
		log.Printf("ubergate: shutting down")
		g.Readiness().SetDraining(true)
		time.Sleep(*drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("ubergate: shutdown: %v", err)
		}
	}
}
