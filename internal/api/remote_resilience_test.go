package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/obs"
)

// fastBackoff keeps retry sleeps negligible in tests.
var fastBackoff = chaos.Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, MaxAttempts: 4}

func writePing(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"time": 600,
		"types": []map[string]any{
			{"type": "uberX", "ewt_seconds": 120.0, "surge": 1.0, "cars": []any{}},
		},
	})
}

func TestRemoteRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		writePing(w)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff), WithRegistry(reg))
	resp, err := remote.PingClient("c1", geo.LatLng{})
	if err != nil {
		t.Fatalf("ping after two 500s: %v", err)
	}
	if resp.Time != 600 {
		t.Errorf("time = %d, want 600", resp.Time)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
	if n := reg.Counter("client_retries_total").Value(); n != 2 {
		t.Errorf("client_retries_total = %d, want 2", n)
	}
	if n := reg.Counter("client_giveups_total").Value(); n != 0 {
		t.Errorf("client_giveups_total = %d, want 0", n)
	}
}

func TestRemoteGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(),
		WithBackoff(fastBackoff), WithoutBreaker(), WithRegistry(reg))
	_, err := remote.PingClient("c1", geo.LatLng{})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if n := calls.Load(); n != int64(fastBackoff.MaxAttempts) {
		t.Errorf("server saw %d attempts, want %d", n, fastBackoff.MaxAttempts)
	}
	if n := reg.Counter("client_giveups_total").Value(); n != 1 {
		t.Errorf("client_giveups_total = %d, want 1", n)
	}
}

func TestRemoteHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		writePing(w)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	start := time.Now()
	if _, err := remote.PingClient("c1", geo.LatLng{}); err != nil {
		t.Fatalf("ping after shed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v; want ≥ 1s (the advertised Retry-After)", elapsed)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}

func TestRemote429WithRetryAfterIsRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		writePing(w)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	if _, err := remote.PingClient("c1", geo.LatLng{}); err != nil {
		t.Fatalf("ping after paced 429: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}

func TestRemoteBare429IsTerminal(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "hourly budget exhausted", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	_, err := remote.PingClient("c1", geo.LatLng{})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1 (waiting cannot refill the budget)", n)
	}
}

func TestRemoteTerminalSentinels(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		switch r.URL.Query().Get("client") {
		case "ghost":
			http.Error(w, "unknown", http.StatusUnauthorized)
		default:
			http.Error(w, "out of service area", http.StatusNotFound)
		}
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	if _, err := remote.PingClient("ghost", geo.LatLng{}); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("401 → %v, want ErrUnknownAccount", err)
	}
	if _, err := remote.PingClient("c1", geo.LatLng{}); !errors.Is(err, ErrOutOfService) {
		t.Errorf("404 → %v, want ErrOutOfService", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2 (no retries on semantic errors)", n)
	}
}

func TestRemoteRetriesTruncatedBody(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Well-formed status, garbage half-response: decode must fail.
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"time": 600, "typ`)
			return
		}
		writePing(w)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	if _, err := remote.PingClient("c1", geo.LatLng{}); err != nil {
		t.Fatalf("ping after truncated body: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}

func TestRemoteCircuitBreaker(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			if r.URL.Path == "/estimates/time" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `[]`)
				return
			}
			writePing(w)
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(),
		WithBackoff(chaos.Backoff{Base: time.Millisecond, Cap: time.Millisecond, MaxAttempts: 2}),
		WithRegistry(reg))
	// A fast-tripping policy, set before the first call creates a breaker.
	remote.breakerCfg = chaos.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond}

	// Two failed calls (each exhausting its 2 attempts) trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := remote.PingClient("c1", geo.LatLng{}); err == nil {
			t.Fatal("want error while backend is down")
		}
	}
	if st := remote.BreakerState("/pingClient"); st != chaos.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	if n := reg.Counter("client_breaker_opens_total").Value(); n != 1 {
		t.Errorf("client_breaker_opens_total = %d, want 1", n)
	}

	// While open, calls fail fast without touching the backend.
	before := calls.Load()
	_, err := remote.PingClient("c1", geo.LatLng{})
	if !errors.Is(err, chaos.ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Error("open breaker still hit the backend")
	}
	if n := reg.Counter("client_breaker_fastfail_total").Value(); n != 1 {
		t.Errorf("client_breaker_fastfail_total = %d, want 1", n)
	}

	// Each endpoint gets its own breaker: estimates still reach the server.
	healthy.Store(true)
	if _, err := remote.EstimateTime("c1", geo.LatLng{}); err != nil {
		t.Fatalf("estimates/time while pingClient breaker open: %v", err)
	}

	// After the cooldown, the half-open probe succeeds and closes the circuit.
	time.Sleep(60 * time.Millisecond)
	if _, err := remote.PingClient("c1", geo.LatLng{}); err != nil {
		t.Fatalf("half-open probe: %v", err)
	}
	if st := remote.BreakerState("/pingClient"); st != chaos.BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", st)
	}
}

func TestRemoteNowErrDistinguishesDeadBackend(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"time": 4242}`)
	}))
	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(),
		WithBackoff(fastBackoff), WithoutBreaker(), WithRegistry(reg))

	now, err := remote.NowErr()
	if err != nil || now != 4242 {
		t.Fatalf("NowErr = %d, %v; want 4242, nil", now, err)
	}
	if got := remote.Now(); got != 4242 {
		t.Fatalf("Now = %d, want 4242", got)
	}

	ts.Close() // the backend dies
	if _, err := remote.NowErr(); err == nil {
		t.Fatal("NowErr on a dead backend returned nil error")
	}
	if got := remote.Now(); got != 0 {
		t.Errorf("Now on a dead backend = %d, want 0", got)
	}
	if n := reg.Counter("client_now_errors_total").Value(); n != 1 {
		t.Errorf("client_now_errors_total = %d, want 1", n)
	}
}

func TestRemoteWithoutRetrySingleAttempt(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithoutRetry(), WithoutBreaker())
	if _, err := remote.PingClient("c1", geo.LatLng{}); err == nil {
		t.Fatal("want error")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d attempts, want 1", n)
	}
}

func TestRemoteNilClientHasTimeout(t *testing.T) {
	remote := NewRemote("http://example.invalid", nil)
	if remote.hc == http.DefaultClient {
		t.Fatal("nil client resolved to http.DefaultClient (no timeout)")
	}
	if remote.hc.Timeout != DefaultTimeout {
		t.Errorf("default client timeout = %v, want %v", remote.hc.Timeout, DefaultTimeout)
	}
}

func TestRemoteRegisterRetriesShed(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	if err := remote.Register("c1"); err != nil {
		t.Fatalf("register after shed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2", n)
	}
}
