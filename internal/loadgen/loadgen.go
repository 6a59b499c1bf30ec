// Package loadgen is a closed-loop load generator for the emulated Uber
// backend: N concurrent synthetic clients register, then hammer
// pingClient and the estimates endpoints, recording every request into
// obs histograms. It is the measurement harness future performance PRs
// use to justify themselves — cmd/loadgen is its CLI, and the smoke test
// drives it against an httptest.Server.
package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/obs"
)

// Config parameterizes a run.
type Config struct {
	// BaseURL is the backend to hit, e.g. "http://localhost:8080".
	BaseURL string
	// Clients is the number of concurrent synthetic clients (default 4).
	Clients int
	// Duration is how long to generate load (default 5s).
	Duration time.Duration
	// Rate is the per-client target request rate in req/s. 0 means pure
	// closed-loop: each client issues its next request as soon as the
	// previous response lands.
	Rate float64
	// PingWeight/PriceWeight/TimeWeight set the request mix (default
	// 8:1:1 — the app pings every 5 s, estimates are occasional).
	PingWeight, PriceWeight, TimeWeight int
	// Cities names the queried locations (at least one): clients are
	// assigned round-robin over the city names (sorted, so the assignment
	// is deterministic) and each queries its city's location, which must
	// be inside a region the backend serves. The report carries per-city
	// counters — the gateway chaos smoke reads them to check that killing
	// one city's shard left the other city's error rate untouched.
	Cities map[string]geo.LatLng
	// HTTPClient overrides the transport (httptest servers pass theirs).
	HTTPClient *http.Client
	// NoRetry disables the client's retry/backoff and circuit breaker:
	// every request is a single attempt, so the report shows raw fault
	// rates instead of what the resilience layer absorbs.
	NoRetry bool
}

func (c *Config) defaults() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.PingWeight == 0 && c.PriceWeight == 0 && c.TimeWeight == 0 {
		c.PingWeight, c.PriceWeight, c.TimeWeight = 8, 1, 1
	}
}

// EndpointStats summarizes one endpoint's results. Latencies are in
// seconds; the JSON field names carry the unit so machine consumers don't
// have to guess.
type EndpointStats struct {
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`       // transport failures and unexpected statuses
	RateLimited int64   `json:"rate_limited"` // 429s (expected once an account burns its budget)
	Mean        float64 `json:"mean_seconds"`
	P50         float64 `json:"p50_seconds"`
	P95         float64 `json:"p95_seconds"`
	P99         float64 `json:"p99_seconds"`
}

// CityStats summarizes one city's share of a run.
type CityStats struct {
	Clients     int   `json:"clients"`
	Requests    int64 `json:"requests"`
	Errors      int64 `json:"errors"`
	RateLimited int64 `json:"rate_limited"`
}

// Report is the outcome of a run.
type Report struct {
	Elapsed     time.Duration `json:"-"`
	ElapsedSecs float64       `json:"elapsed_seconds"`
	Requests    int64         `json:"requests"`
	Errors      int64         `json:"errors"`
	RateLimited int64         `json:"rate_limited"`
	// Retries counts attempts beyond each request's first; GiveUps the
	// requests that failed after every attempt; BreakerOpens circuit
	// transitions into open. Nonzero retries with zero errors means the
	// resilience layer absorbed every injected fault.
	Retries      int64                    `json:"retries"`
	GiveUps      int64                    `json:"give_ups"`
	BreakerOpens int64                    `json:"breaker_opens"`
	RPS          float64                  `json:"req_per_sec"`
	Endpoints    map[string]EndpointStats `json:"endpoints"`
	Cities       map[string]CityStats     `json:"cities"`
}

// JSON renders the report as one machine-readable JSON object, the format
// perf-trajectory tooling diffs across PRs.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// String renders the report as the table cmd/loadgen prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d requests in %.2fs (%.1f req/s), %d errors, %d rate-limited, %d retries (%d give-ups, %d breaker-opens)\n",
		r.Requests, r.Elapsed.Seconds(), r.RPS, r.Errors, r.RateLimited,
		r.Retries, r.GiveUps, r.BreakerOpens)
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-18s %10s %8s %8s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "429s", "mean", "p50", "p95", "p99")
	for _, name := range names {
		e := r.Endpoints[name]
		fmt.Fprintf(&b, "%-18s %10d %8d %8d %10s %10s %10s %10s\n",
			name, e.Requests, e.Errors, e.RateLimited,
			fmtLatency(e.Mean), fmtLatency(e.P50), fmtLatency(e.P95), fmtLatency(e.P99))
	}
	cities := make([]string, 0, len(r.Cities))
	for name := range r.Cities {
		cities = append(cities, name)
	}
	sort.Strings(cities)
	fmt.Fprintf(&b, "%-18s %8s %10s %8s %8s\n", "city", "clients", "requests", "errors", "429s")
	for _, name := range cities {
		c := r.Cities[name]
		fmt.Fprintf(&b, "%-18s %8d %10d %8d %8d\n",
			name, c.Clients, c.Requests, c.Errors, c.RateLimited)
	}
	return b.String()
}

func fmtLatency(seconds float64) string {
	switch {
	case seconds <= 0:
		return "-"
	case seconds < 0.001:
		return fmt.Sprintf("%.0fµs", seconds*1e6)
	case seconds < 1:
		return fmt.Sprintf("%.2fms", seconds*1e3)
	default:
		return fmt.Sprintf("%.2fs", seconds)
	}
}

// endpoints in mix order; weights resolved per config.
var endpointNames = [3]string{"/pingClient", "/estimates/price", "/estimates/time"}

// A request's result: the index of its counter.
const (
	resultOK = iota
	resultError
	resultLimited
)

// result classifies one request's outcome: 429s are expected once an
// account burns its budget, anything else that failed is an error.
func result(err error) int {
	switch err {
	case nil:
		return resultOK
	case api.ErrRateLimited:
		return resultLimited
	default:
		return resultError
	}
}

// Run registers cfg.Clients accounts and generates load until
// cfg.Duration elapses, then reports throughput and per-endpoint latency
// percentiles computed from the run's obs histograms.
func Run(cfg Config) (*Report, error) {
	if cfg.PingWeight < 0 || cfg.PriceWeight < 0 || cfg.TimeWeight < 0 {
		// A negative share would skew the mix, or zero the modulus below.
		return nil, fmt.Errorf("loadgen: negative request-mix weight in %d:%d:%d",
			cfg.PingWeight, cfg.PriceWeight, cfg.TimeWeight)
	}
	if len(cfg.Cities) == 0 {
		return nil, errors.New("loadgen: no city to query")
	}
	cfg.defaults()
	// The Remote's client_* counters land in a private registry, which the
	// report reads back.
	reg := obs.NewRegistry()
	ropts := []api.RemoteOption{
		api.WithRegistry(reg),
		// The generator's job is to keep load flowing through injected
		// faults, so it retries harder than the default client policy: at
		// the chaos-smoke fault rates (~12% per attempt) 8 attempts put
		// the per-request give-up probability below 1e-7, which is what
		// lets the smoke demand exactly zero client-visible errors.
		api.WithBackoff(chaos.Backoff{
			Base: 10 * time.Millisecond, Cap: 500 * time.Millisecond, MaxAttempts: 8,
		}),
		// A wider retry budget to match: the default (20 tokens, 0.2/success)
		// is sized for an app-like client, not a fleet pushing thousands of
		// requests through sustained fault injection.
		api.WithRetryBudget(64, 0.25),
	}
	if cfg.NoRetry {
		ropts = append(ropts, api.WithoutRetry(), api.WithoutBreaker())
	}
	hc := cfg.HTTPClient
	if hc == nil {
		// The stdlib default transport keeps only 2 idle connections per
		// host; a closed-loop fleet larger than that reconnects on nearly
		// every request and the 40ms delayed-ACK penalty on fresh
		// connections caps the generator far below the backend's capacity.
		// Pool one connection per client.
		hc = &http.Client{
			Timeout: api.DefaultTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Clients + 8,
				MaxIdleConnsPerHost: cfg.Clients + 8,
			},
		}
	}
	remote := api.NewRemote(cfg.BaseURL, hc, ropts...)

	// Client → city assignment: round-robin over sorted names so run N and
	// run N+1 put client i in the same city (the kill-a-shard comparison
	// depends on stable populations).
	cityNames := make([]string, 0, len(cfg.Cities))
	for name := range cfg.Cities {
		cityNames = append(cityNames, name)
	}
	sort.Strings(cityNames)

	ids := make([]string, cfg.Clients)
	for i := range ids {
		ids[i] = fmt.Sprintf("loadgen-%d", i)
		if err := remote.Register(ids[i]); err != nil {
			return nil, fmt.Errorf("loadgen: register %s: %w", ids[i], err)
		}
	}

	weights := [3]int{cfg.PingWeight, cfg.PriceWeight, cfg.TimeWeight}
	totalWeight := weights[0] + weights[1] + weights[2]
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}

	// Each request lands in one counter, keyed by endpoint, city and
	// result; the report sums them both ways.
	hists := make([]*obs.Histogram, len(endpointNames))
	counts := make([][][3]obs.Counter, len(endpointNames))
	for ep := range endpointNames {
		hists[ep] = obs.NewHistogram(obs.DefLatencyBuckets)
		counts[ep] = make([][3]obs.Counter, len(cityNames))
	}

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	done := make(chan struct{}, cfg.Clients)
	for w := 0; w < cfg.Clients; w++ {
		go func(clientID string, seq int) {
			defer func() { done <- struct{}{} }()
			city := seq % len(cityNames)
			loc := cfg.Cities[cityNames[city]]
			for i := seq; time.Now().Before(deadline); i++ {
				// Weighted round-robin over the mix, offset per client so
				// the fleet doesn't phase-lock on one endpoint.
				slot := i % totalWeight
				ep := 0
				switch {
				case slot < weights[0]:
					ep = 0
				case slot < weights[0]+weights[1]:
					ep = 1
				default:
					ep = 2
				}
				reqStart := time.Now()
				var err error
				switch ep {
				case 0:
					_, err = remote.PingClient(clientID, loc)
				case 1:
					_, err = remote.EstimatePrice(clientID, loc)
				case 2:
					_, err = remote.EstimateTime(clientID, loc)
				}
				hists[ep].ObserveDuration(time.Since(reqStart))
				counts[ep][city][result(err)].Inc()
				if interval > 0 {
					if next := reqStart.Add(interval); time.Now().Before(next) {
						time.Sleep(time.Until(next))
					}
				}
			}
		}(ids[w], w)
	}
	for w := 0; w < cfg.Clients; w++ {
		<-done
	}
	elapsed := time.Since(start)

	rep := &Report{
		Elapsed:     elapsed,
		ElapsedSecs: elapsed.Seconds(),
		Endpoints:   make(map[string]EndpointStats, len(endpointNames)),
		Cities:      make(map[string]CityStats, len(cityNames)),
	}
	cities := make([]CityStats, len(cityNames))
	for i := 0; i < cfg.Clients; i++ {
		cities[i%len(cityNames)].Clients++
	}
	for ep, name := range endpointNames {
		s := hists[ep].Snapshot()
		es := EndpointStats{
			Requests: s.Count,
			Mean:     s.Mean(),
			P50:      s.Quantile(0.50),
			P95:      s.Quantile(0.95),
			P99:      s.Quantile(0.99),
		}
		for c := range cityNames {
			n := &counts[ep][c]
			es.Errors += n[resultError].Value()
			es.RateLimited += n[resultLimited].Value()
			cities[c].Requests += n[resultOK].Value() + n[resultError].Value() + n[resultLimited].Value()
			cities[c].Errors += n[resultError].Value()
			cities[c].RateLimited += n[resultLimited].Value()
		}
		rep.Endpoints[name] = es
		rep.Requests += es.Requests
		rep.Errors += es.Errors
		rep.RateLimited += es.RateLimited
	}
	for c, name := range cityNames {
		rep.Cities[name] = cities[c]
	}
	// Resilience counters come straight from the Remote's registry
	// (handle lookup is idempotent, so this reads what it recorded).
	rep.Retries = reg.Counter("client_retries_total").Value()
	rep.GiveUps = reg.Counter("client_giveups_total").Value()
	rep.BreakerOpens = reg.Counter("client_breaker_opens_total").Value()
	if secs := elapsed.Seconds(); secs > 0 {
		rep.RPS = float64(rep.Requests) / secs
	}
	return rep, nil
}
