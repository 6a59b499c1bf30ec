package api

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// testObsHTTP builds an instrumented server over a warmed backend.
func testObsHTTP(t *testing.T) (*Service, *obs.Registry, *httptest.Server) {
	t.Helper()
	svc := Scenario{City: "manhattan", Seed: 3}.Build()
	svc.RunUntil(600)
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	ts := httptest.NewServer(NewServer(svc, WithMetrics(reg)))
	t.Cleanup(ts.Close)
	return svc, reg, ts
}

func TestMiddlewareRecordsStatusAndLatency(t *testing.T) {
	svc, reg, ts := testObsHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	if err := remote.Register("mw"); err != nil {
		t.Fatal(err)
	}
	loc := center(svc)
	for i := 0; i < 3; i++ {
		if _, err := remote.PingClient("mw", loc); err != nil {
			t.Fatal(err)
		}
	}
	// A bad probe -> 400 on the same endpoint.
	resp, err := http.Get(ts.URL + "/pingClient?client=mw&lat=abc&lng=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A spent hourly budget -> 429 on the price endpoint.
	for i := 0; i < RateLimitPerHour; i++ {
		if _, err := svc.EstimatePrice("mw", loc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := remote.EstimatePrice("mw", loc); err != ErrRateLimited {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}

	ping := obs.L("endpoint", "/pingClient")
	if got := reg.Counter("http_requests_total", ping, obs.L("class", "2xx")).Value(); got != 3 {
		t.Errorf("2xx count = %d, want 3", got)
	}
	if got := reg.Counter("http_requests_total", ping, obs.L("class", "4xx")).Value(); got != 1 {
		t.Errorf("4xx count = %d, want 1", got)
	}
	if got := reg.Counter("http_requests_total", ping, obs.L("class", "400")).Value(); got != 1 {
		t.Errorf("400 count = %d, want 1", got)
	}
	if got := reg.Counter("http_requests_total", ping, obs.L("class", "429")).Value(); got != 0 {
		t.Errorf("ping 429 count = %d, want 0", got)
	}
	price := obs.L("endpoint", "/estimates/price")
	if got := reg.Counter("http_requests_total", price, obs.L("class", "429")).Value(); got != 1 {
		t.Errorf("price 429 count = %d, want 1", got)
	}
	if got := reg.Counter("http_requests_total", price, obs.L("class", "400")).Value(); got != 0 {
		t.Errorf("price 400 count = %d, want 0", got)
	}
	hist := reg.Histogram("http_request_duration_seconds", obs.DefLatencyBuckets, ping)
	if s := hist.Snapshot(); s.Count != 4 || s.Quantile(0.5) <= 0 {
		t.Errorf("latency histogram count = %d p50 = %g", s.Count, s.Quantile(0.5))
	}
	// The login endpoint is tracked separately.
	if got := reg.Counter("http_requests_total", obs.L("endpoint", "/login"), obs.L("class", "2xx")).Value(); got != 1 {
		t.Errorf("login 2xx count = %d, want 1", got)
	}
}

func TestMiddlewareRecords429AndServiceCounters(t *testing.T) {
	svc, reg, ts := testObsHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	if err := remote.Register("heavy"); err != nil {
		t.Fatal(err)
	}
	loc := center(svc)
	// Exhaust the hourly budget in-process, then hit the limit over HTTP.
	for i := 0; i < RateLimitPerHour; i++ {
		if _, err := svc.EstimatePrice("heavy", loc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := remote.EstimatePrice("heavy", loc); err != ErrRateLimited {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	price := obs.L("endpoint", "/estimates/price")
	if got := reg.Counter("http_requests_total", price, obs.L("class", "429")).Value(); got != 1 {
		t.Errorf("429 count = %d, want 1", got)
	}
	if got := reg.Counter("http_requests_total", price, obs.L("class", "4xx")).Value(); got != 1 {
		t.Errorf("4xx count = %d, want 1", got)
	}
	if got := reg.Counter("api_rate_limited_total").Value(); got != 1 {
		t.Errorf("api_rate_limited_total = %d, want 1", got)
	}
	if got := reg.Counter("api_registrations_total").Value(); got != 1 {
		t.Errorf("api_registrations_total = %d, want 1", got)
	}
}

func TestMetricsExpositionEndToEnd(t *testing.T) {
	svc, reg, ts := testObsHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	if err := remote.Register("expo"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.PingClient("expo", center(svc)); err != nil {
		t.Fatal(err)
	}
	svc.Step() // populate sim gauges

	// Serve the registry the way cmd/uberd mounts it at /metrics.
	ms := httptest.NewServer(reg.Handler())
	defer ms.Close()
	resp, err := http.Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{class="2xx",endpoint="/pingClient"} 1`,
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_bucket{endpoint="/pingClient",le="+Inf"} 1`,
		"# TYPE sim_drivers_online gauge",
		"# TYPE sim_step_duration_seconds histogram",
		"api_registrations_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestQueryArgsRejectNonFinite(t *testing.T) {
	svc, ts := testHTTP(t)
	svc.Register("nan")
	for _, q := range []string{
		"lat=NaN&lng=0", "lat=0&lng=NaN",
		"lat=Inf&lng=0", "lat=0&lng=-Inf",
		"lat=+Inf&lng=0", "lat=inf&lng=0",
	} {
		resp, err := http.Get(ts.URL + "/pingClient?client=nan&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestLoginBodyCapped(t *testing.T) {
	_, ts := testHTTP(t)
	// A 1 MiB body must be rejected, not buffered.
	huge := bytes.Repeat([]byte("x"), 1<<20)
	resp, err := http.Post(ts.URL+"/login", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	// A normal-sized login still works.
	resp, err = http.Post(ts.URL+"/login", "application/json",
		strings.NewReader(`{"client_id":"ok"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d, want 200", resp.StatusCode)
	}
}

// TestConcurrentQueriesAndSteps exercises the RWMutex split: readers
// (pings, estimates) run concurrently with writers (Step) and account
// churn. Run with -race to validate the locking.
func TestConcurrentQueriesAndSteps(t *testing.T) {
	svc := Scenario{City: "manhattan", Seed: 7, Jitter: true}.Build()
	svc.RunUntil(600)
	loc := center(svc)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		id := fmt.Sprintf("c%d", c)
		svc.Register(id)
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := svc.PingClient(id, loc); err != nil {
					t.Error(err)
					return
				}
				if _, err := svc.EstimateTime(id, loc); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			svc.Step()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			svc.Register(fmt.Sprintf("new%d", i))
			svc.Accounts()
		}
	}()
	wg.Wait()
}
