// Command loadgen drives a running uberd, or an ubergate fronting several
// city shards, with N concurrent synthetic clients in a closed loop and
// reports throughput plus latency percentiles from the obs histograms it
// records into.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -clients 16 -duration 30s
//	loadgen -addr http://localhost:8080 -clients 8 -rate 2 -cities sf
//	loadgen -addr http://localhost:8080 -clients 16 -json > run.json
//	loadgen -addr http://localhost:8090 -cities sf,manhattan
//
// With -rate 0 (the default) each client issues its next request as soon
// as the previous response lands — the classic closed-loop saturation
// probe. A positive -rate paces each client at that many requests per
// second, emulating the paper's measurement fleet (43 clients, one ping
// per 5 s ≈ -rate 0.2).
//
// Clients are split round-robin across -cities, each querying its city's
// center, and the report counts requests and errors per city. Against a
// gateway the cities fan out by GPS to their shards: the gateway chaos
// smoke gates on the per-city numbers when it kills a shard mid-run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/loadgen"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 0 on success, 1
// when the run fails (or, with -fail-on-errors, leaves client-visible
// errors), 2 for a command line it rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "http://localhost:8080", "base URL of the uberd backend or ubergate gateway")
		clients   = fs.Int("clients", 8, "concurrent synthetic clients")
		duration  = fs.Duration("duration", 10*time.Second, "how long to generate load")
		rate      = fs.Float64("rate", 0, "per-client request rate in req/s (0 = closed-loop max)")
		citiesArg = fs.String("cities", "manhattan", "comma-separated city profiles whose centers to query (clients split round-robin): manhattan, sf")
		pingW     = fs.Int("ping-weight", 8, "pingClient share of the request mix")
		priceW    = fs.Int("price-weight", 1, "estimates/price share of the request mix")
		timeW     = fs.Int("time-weight", 1, "estimates/time share of the request mix")
		asJSON    = fs.Bool("json", false, "emit the report as JSON on stdout (banner goes to stderr)")
		noRetry   = fs.Bool("no-retry", false, "disable client retries/circuit breaking (report raw fault rates)")
		failErrs  = fs.Bool("fail-on-errors", false, "exit 1 if any client-visible errors remain (chaos-smoke gate)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *pingW < 0 || *priceW < 0 || *timeW < 0 {
		fmt.Fprintf(stderr, "loadgen: -ping-weight, -price-weight and -time-weight must be >= 0 (got %d:%d:%d)\n", *pingW, *priceW, *timeW)
		return 2
	}

	cities := make(map[string]geo.LatLng)
	for _, name := range strings.Split(*citiesArg, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := sim.ProfileByName(name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		cities[p.Name] = p.Origin
	}
	if len(cities) == 0 {
		fmt.Fprintf(stderr, "loadgen: -cities %q names no city\n", *citiesArg)
		return 2
	}
	names := make([]string, 0, len(cities))
	for name := range cities {
		names = append(names, name)
	}
	sort.Strings(names)

	banner := stdout
	if *asJSON {
		banner = stderr // keep stdout pure JSON for pipelines
	}
	fmt.Fprintf(banner, "loadgen: %d clients -> %s for %s (rate %g req/s/client, mix %d:%d:%d, cities %s)\n",
		*clients, *addr, *duration, *rate, *pingW, *priceW, *timeW, strings.Join(names, ","))
	report, err := loadgen.Run(loadgen.Config{
		BaseURL:     *addr,
		Clients:     *clients,
		Duration:    *duration,
		Rate:        *rate,
		PingWeight:  *pingW,
		PriceWeight: *priceW,
		TimeWeight:  *timeW,
		Cities:      cities,
		NoRetry:     *noRetry,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *asJSON {
		out, err := report.JSON()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		fmt.Fprint(stdout, report.String())
	}
	if *failErrs && report.Errors > 0 {
		fmt.Fprintf(stderr, "loadgen: %d client-visible errors (want 0)\n", report.Errors)
		return 1
	}
	return 0
}
