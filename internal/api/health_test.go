package api

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func readyzStatus(t *testing.T, rd *Readiness) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	rd.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return rec.Code, body
}

func TestReadinessLifecycle(t *testing.T) {
	rd := NewReadiness()
	if code, _ := readyzStatus(t, rd); code != http.StatusOK {
		t.Fatalf("no checks, not draining: status %d, want 200", code)
	}

	var epoch, bus atomic.Bool
	rd.AddCheck("epoch", epoch.Load)
	rd.AddCheck("bus", bus.Load)
	if code, body := readyzStatus(t, rd); code != http.StatusServiceUnavailable || body["reason"] != "epoch" {
		t.Fatalf("failing first check: %d %v", code, body)
	}
	epoch.Store(true)
	if _, body := readyzStatus(t, rd); body["reason"] != "bus" {
		t.Fatalf("want second check named, got %v", body)
	}
	bus.Store(true)
	if code, _ := readyzStatus(t, rd); code != http.StatusOK {
		t.Fatal("all checks passing but not ready")
	}

	// Draining wins over passing checks, and is reversible.
	rd.SetDraining(true)
	if code, body := readyzStatus(t, rd); code != http.StatusServiceUnavailable || body["reason"] != "draining" {
		t.Fatalf("draining: %d %v", code, body)
	}
	if !rd.Draining() {
		t.Error("Draining() = false while draining")
	}
	rd.SetDraining(false)
	if code, _ := readyzStatus(t, rd); code != http.StatusOK {
		t.Error("undrain did not restore readiness")
	}

	// Nil receiver is ready (servers without a readiness state machine).
	var nilRd *Readiness
	if ok, _ := nilRd.Ready(); !ok {
		t.Error("nil Readiness not ready")
	}
}

func TestHealthzReportsSimTime(t *testing.T) {
	rec := httptest.NewRecorder()
	Healthz(func() int64 { return 1234 }).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var body struct {
		Status string `json:"status"`
		Time   int64  `json:"time"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || body.Status != "ok" || body.Time != 1234 {
		t.Fatalf("healthz = %d %+v", rec.Code, body)
	}

	// The gateway variant has no sim clock; the time field is absent.
	rec = httptest.NewRecorder()
	Healthz(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, has := raw["time"]; has {
		t.Error("nil-clock healthz reports a time")
	}
}

// TestServerHealthEndpoints pins the wiring NewServer does: /healthz
// reports the sim clock and /readyz passes (the constructor publishes the
// first epoch). Draining is the Readiness and TestServe tests' concern.
func TestServerHealthEndpoints(t *testing.T) {
	svc := Scenario{City: "manhattan", Seed: 3}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz = %d, want 200", code)
	}
	var body struct {
		Time int64 `json:"time"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Time != 600 {
		t.Errorf("healthz time = %d, want 600 (the gateway prober reads this)", body.Time)
	}
}

// TestServe pins the shutdown order a fronting gateway depends on: after
// ctx is cancelled /readyz answers 503 "draining" on fresh connections
// (the listener is still open) for the drain window, and only then does
// the listener close and Serve return nil.
func TestServe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve a free port, then hand it to the server under test

	rd := NewReadiness()
	mux := http.NewServeMux()
	mux.Handle("GET /readyz", rd.Handler())
	const drain = time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, &http.Server{Addr: addr, Handler: mux}, rd, drain) }()

	// One connection per probe, so an answer proves the listener accepts.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	probe := func() (int, any) {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body["reason"]
	}
	await := func(what string, wantCode int, wantReason any) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			code, reason := probe()
			if code == wantCode && reason == wantReason {
				return
			}
			select {
			case err := <-done:
				t.Fatalf("Serve returned %v before /readyz was %s (last answer %d %v)", err, what, code, reason)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("/readyz never became %s (last answer %d %v)", what, code, reason)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	await("ready", http.StatusOK, nil)
	cancelled := time.Now()
	cancel()
	await("draining", http.StatusServiceUnavailable, "draining")

	if err := <-done; err != nil {
		t.Fatalf("Serve after a clean shutdown = %v, want nil", err)
	}
	if held := time.Since(cancelled); held < drain {
		t.Errorf("listener closed %v after cancel, want the %v drain window held", held, drain)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepts after Serve returned")
	}
}

// TestServeListenError: a port already in use comes back as an error for
// the daemon to report, with readiness untouched.
func TestServeListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rd := NewReadiness()
	err = Serve(context.Background(), &http.Server{Addr: ln.Addr().String()}, rd, time.Hour)
	if err == nil {
		t.Fatal("Serve on a port in use returned nil")
	}
	if rd.Draining() {
		t.Error("a failed listen flipped readiness to draining")
	}
}
