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
// Chaos applies to the gateway itself too: the same chaos.Edge as uberd
// (-chaos-* fault injection, -max-inflight admission control,
// -request-timeout), wrapped around the forwarding surface only —
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
	"io"
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
		return nil, nil, errors.New("-shards is required, e.g. -shards sf=http://127.0.0.1:18081,manhattan=http://127.0.0.1:18082")
	}
	return regions, shards, nil
}

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stderr)) }

// run serves until ctx is cancelled or the process is signalled and
// returns the exit code: 0 after a clean shutdown, 1 when it could not
// serve, 2 for a command line it rejects.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8090", "listen address")
		shardsArg = fs.String("shards", "", "comma-separated city=baseURL shard list (required; repeat a city for replicas)")
		healthIvl = fs.Duration("health-interval", 500*time.Millisecond, "active health-check period per shard (also each probe's timeout)")
	)
	var edge chaos.Edge
	edge.Flags(fs, 10*time.Second)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "ubergate: ", log.LstdFlags|log.Lmsgprefix)

	reject := func(why any) int { fmt.Fprintln(stderr, why); return 2 }
	regions, shards, err := parseShards(*shardsArg)
	if err != nil {
		return reject(err)
	}
	injector, err := edge.Injector()
	if err != nil {
		return reject(err)
	}
	reg := obs.NewRegistry()
	g, err := gate.NewGateway(gate.Config{
		Regions:        regions,
		Shards:         shards,
		HealthInterval: *healthIvl,
		RetryAfter:     edge.RetryAfter,
		Registry:       reg,
	})
	if err != nil {
		return reject(err)
	}
	g.Start()
	defer g.Close()
	if injector != nil {
		logger.Printf("chaos enabled (%s)", edge.Faults)
	}

	// Only the forwarding surface sits behind the edge; health and
	// metrics stay outside.
	mux := http.NewServeMux()
	mux.Handle("/", edge.Wrap(g.APIHandler(), injector, reg))
	mux.Handle("GET /metrics", g.MetricsHandler())
	mux.Handle("GET /healthz", api.Healthz(nil))
	mux.Handle("GET /readyz", g.Readiness().Handler())

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, s := range g.Shards() {
		logger.Printf("shard %s (%s) -> %s alive=%v ready=%v",
			s.Name, s.Region, s.BaseURL, s.Alive(), s.Ready())
	}
	logger.Printf("serving %d shards on %s (health every %s)",
		len(g.Shards()), *addr, *healthIvl)
	// api.Serve fails readiness first so an upstream balancer (or a prober
	// of our own /readyz) stops sending work, then closes the listener.
	if err := api.Serve(ctx, &http.Server{Addr: *addr, Handler: mux}, g.Readiness(), edge.Drain); err != nil {
		logger.Print(err)
		return 1
	}
	logger.Printf("shut down")
	return 0
}
