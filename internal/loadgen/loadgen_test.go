package loadgen

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestRunSmoke drives the generator against an in-process backend and
// checks the report is populated and consistent with the server's registry.
func TestRunSmoke(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 11}.Build()
	svc.RunUntil(600)
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	ts := httptest.NewServer(api.NewServer(svc, api.WithMetrics(reg)))
	defer ts.Close()

	report, err := Run(Config{
		BaseURL:    ts.URL,
		Clients:    4,
		Duration:   300 * time.Millisecond,
		Cities:     map[string]geo.LatLng{profile.Name: profile.Origin},
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("closed-loop run issued no requests")
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d, want 0", report.Errors)
	}
	if report.RPS <= 0 {
		t.Errorf("RPS = %g", report.RPS)
	}
	ping := report.Endpoints["/pingClient"]
	if ping.Requests == 0 {
		t.Error("no pings recorded")
	}
	if ping.P50 <= 0 || ping.P99 < ping.P50 {
		t.Errorf("implausible percentiles: p50=%g p99=%g", ping.P50, ping.P99)
	}
	// The same requests are visible server-side: loadgen traffic populated
	// the middleware counters in the server's registry.
	serverPings := reg.Counter("http_requests_total",
		obs.L("endpoint", "/pingClient"), obs.L("class", "2xx")).Value()
	if serverPings != ping.Requests {
		t.Errorf("server saw %d pings, loadgen recorded %d", serverPings, ping.Requests)
	}
	// Report renders with all three endpoints.
	out := report.String()
	for _, want := range []string{"/pingClient", "/estimates/price", "/estimates/time", "req/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportJSON checks the machine-readable form round-trips with the
// documented field names and agrees with the struct values.
func TestReportJSON(t *testing.T) {
	r := &Report{
		Elapsed:     1500 * time.Millisecond,
		ElapsedSecs: 1.5,
		Requests:    120,
		Errors:      2,
		RateLimited: 3,
		RPS:         80,
		Endpoints: map[string]EndpointStats{
			"/pingClient": {Requests: 100, Mean: 0.002, P50: 0.0015, P95: 0.004, P99: 0.009},
		},
	}
	out, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		Requests       int64   `json:"requests"`
		ReqPerSec      float64 `json:"req_per_sec"`
		Endpoints      map[string]struct {
			Requests   int64   `json:"requests"`
			P99Seconds float64 `json:"p99_seconds"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if decoded.ElapsedSeconds != 1.5 || decoded.Requests != 120 || decoded.ReqPerSec != 80 {
		t.Errorf("top-level fields wrong: %+v\n%s", decoded, out)
	}
	ping, ok := decoded.Endpoints["/pingClient"]
	if !ok || ping.Requests != 100 || ping.P99Seconds != 0.009 {
		t.Errorf("endpoint fields wrong: %+v\n%s", decoded.Endpoints, out)
	}
	if strings.Contains(string(out), "Elapsed\"") {
		t.Errorf("Go field names leaked into JSON:\n%s", out)
	}
}

// TestRunPaced checks rate limiting of the generator itself: a paced run
// must not exceed its configured request budget.
func TestRunPaced(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 12}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(api.NewServer(svc))
	defer ts.Close()

	const clients, rate = 2, 20.0
	dur := 500 * time.Millisecond
	report, err := Run(Config{
		BaseURL:    ts.URL,
		Clients:    clients,
		Duration:   dur,
		Rate:       rate,
		Cities:     map[string]geo.LatLng{profile.Name: profile.Origin},
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Budget: clients * rate * duration, +1 per client for boundary
	// rounding; generous upper slack since CI clocks jitter.
	maxReqs := int64(clients*(rate*dur.Seconds()+1)) * 2
	if report.Requests == 0 || report.Requests > maxReqs {
		t.Errorf("paced run issued %d requests, want 1..%d", report.Requests, maxReqs)
	}
}

func TestRunBadBaseURL(t *testing.T) {
	_, err := Run(Config{
		BaseURL:  "http://127.0.0.1:1",
		Duration: 50 * time.Millisecond,
		Cities:   map[string]geo.LatLng{"manhattan": sim.Manhattan().Origin},
	})
	if err == nil {
		t.Fatal("expected registration error against dead backend")
	}
}

// TestRunRejectsNegativeWeight: a negative share of the mix is refused
// before any load is generated. 1:-1:0 sums to zero and used to panic every
// client goroutine with an integer divide by zero; 8:-1:1 silently skewed
// the mix.
func TestRunRejectsNegativeWeight(t *testing.T) {
	ts := httptest.NewServer(api.NewServer(api.Scenario{City: "manhattan", Seed: 11}.Build()))
	defer ts.Close()
	manhattan := map[string]geo.LatLng{"manhattan": sim.Manhattan().Origin}
	for _, w := range [][3]int{{1, -1, 0}, {8, -1, 1}, {0, 0, -1}} {
		_, err := Run(Config{
			BaseURL: ts.URL, HTTPClient: ts.Client(), Clients: 2, Duration: 50 * time.Millisecond,
			Cities: manhattan, PingWeight: w[0], PriceWeight: w[1], TimeWeight: w[2],
		})
		if err == nil || !strings.Contains(err.Error(), "weight") {
			t.Errorf("mix %v: err = %v, want a negative-weight error", w, err)
		}
	}
}

// TestRunAbsorbsChaos is the in-process version of the CI chaos smoke: the
// backend is wrapped in the full uberd middleware chain with fault
// injection enabled, and the resilient client must absorb every injected
// fault — zero client-visible errors, nonzero retries. Run under -race
// this doubles as the concurrency stress test for the chaos middleware,
// the retry loop, and the per-endpoint breakers.
func TestRunAbsorbsChaos(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 13}.Build()
	svc.RunUntil(600)
	reg := obs.NewRegistry()
	svc.Instrument(reg)

	edge := chaos.Edge{
		Faults: chaos.Config{
			Seed:         1,
			ErrorProb:    0.05,
			ResetProb:    0.03,
			TruncateProb: 0.03,
			LatencyProb:  0.2,
			Latency:      2 * time.Millisecond,
		},
		RequestTimeout: 2 * time.Second,
	}
	inj, err := edge.Injector()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(edge.Wrap(api.NewServer(svc, api.WithMetrics(reg)), inj, reg))
	defer ts.Close()

	report, err := Run(Config{
		BaseURL:    ts.URL,
		Clients:    8,
		Duration:   400 * time.Millisecond,
		Cities:     map[string]geo.LatLng{profile.Name: profile.Origin},
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no requests issued")
	}
	faults := reg.Counter("chaos_faults_total", obs.L("kind", "error")).Value() +
		reg.Counter("chaos_faults_total", obs.L("kind", "reset")).Value() +
		reg.Counter("chaos_faults_total", obs.L("kind", "truncate")).Value()
	if faults == 0 {
		t.Fatal("chaos injected no faults; the test exercised nothing")
	}
	if report.Errors != 0 {
		t.Errorf("client-visible errors = %d, want 0 (resilience layer must absorb all %d faults)",
			report.Errors, faults)
	}
	if report.Retries == 0 {
		t.Error("retries = 0; faults were injected but nothing retried")
	}
	t.Logf("absorbed %d injected faults across %d requests with %d retries (%d give-ups)",
		faults, report.Requests, report.Retries, report.GiveUps)
}

// TestRunNoRetryExposesFaults checks the -no-retry escape hatch: with the
// resilience layer off, injected faults surface as client-visible errors.
func TestRunNoRetryExposesFaults(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 13}.Build()
	svc.RunUntil(600)
	reg := obs.NewRegistry()

	inj := chaos.NewInjector(chaos.Config{Seed: 2, ErrorProb: 0.3})
	var h http.Handler = api.NewServer(svc)
	h = inj.Middleware(h, reg)
	ts := httptest.NewServer(h)
	defer ts.Close()

	report, err := Run(Config{
		BaseURL:    ts.URL,
		Clients:    4,
		Duration:   200 * time.Millisecond,
		Cities:     map[string]geo.LatLng{profile.Name: profile.Origin},
		HTTPClient: ts.Client(),
		NoRetry:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors == 0 {
		t.Error("no-retry run absorbed injected 500s; want raw fault visibility")
	}
	if report.Retries != 0 {
		t.Errorf("retries = %d with NoRetry set, want 0", report.Retries)
	}
}

// TestRunCities runs one fleet over two cities against a Manhattan shard:
// clients split round-robin over the sorted names, every request is
// counted in exactly one city, and the SF clients — querying a location
// the shard does not serve — carry every error.
func TestRunCities(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	svc := api.Scenario{City: mh.Name, Seed: 11}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(api.NewServer(svc))
	defer ts.Close()

	report, err := Run(Config{
		BaseURL:    ts.URL,
		Clients:    3,
		Duration:   300 * time.Millisecond,
		Cities:     map[string]geo.LatLng{sf.Name: sf.Origin, mh.Name: mh.Origin},
		HTTPClient: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := report.Cities, map[string]int{mh.Name: 2, sf.Name: 1}
	if len(got) != len(want) {
		t.Fatalf("cities %+v, want %v", got, want)
	}
	var sum int64
	for name, clients := range want {
		if got[name].Clients != clients {
			t.Errorf("%s: %d clients, want %d", name, got[name].Clients, clients)
		}
		if got[name].Requests == 0 {
			t.Errorf("%s: no requests", name)
		}
		sum += got[name].Requests
	}
	if sum != report.Requests {
		t.Errorf("per-city requests sum to %d, report has %d", sum, report.Requests)
	}
	if e := got[mh.Name].Errors; e != 0 {
		t.Errorf("manhattan errors = %d, want 0", e)
	}
	if e := got[sf.Name]; e.Errors != e.Requests || e.Errors != report.Errors {
		t.Errorf("sf: %d errors in %d requests, report %d errors; want every request an error, and every error sf's",
			e.Errors, e.Requests, report.Errors)
	}
}
