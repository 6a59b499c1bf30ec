package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func testHTTP(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	svc := Scenario{City: "manhattan", Seed: 3}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	return svc, ts
}

func TestHTTPLoginAndPing(t *testing.T) {
	svc, ts := testHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())

	if err := remote.Register("httpclient"); err != nil {
		t.Fatal(err)
	}
	loc := center(svc)
	resp, err := remote.PingClient("httpclient", loc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Time != 600 {
		t.Errorf("Time = %d", resp.Time)
	}
	x := resp.Status(core.UberX)
	if x == nil || len(x.Cars) == 0 {
		t.Fatalf("UberX status missing or empty: %+v", x)
	}
	// Enum rebuilt from the wire name.
	if x.Type != core.UberX || x.TypeName != "uberX" {
		t.Errorf("type mapping broken: %v %q", x.Type, x.TypeName)
	}
}

func TestHTTPEstimates(t *testing.T) {
	svc, ts := testHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	if err := remote.Register("c2"); err != nil {
		t.Fatal(err)
	}
	loc := center(svc)
	prices, err := remote.EstimatePrice("c2", loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) == 0 {
		t.Error("no prices over HTTP")
	}
	times, err := remote.EstimateTime("c2", loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Error("no times over HTTP")
	}
	if got := remote.Now(); got != svc.Now() {
		t.Errorf("remote Now = %d, local %d", got, svc.Now())
	}
}

func TestHTTPErrors(t *testing.T) {
	svc, ts := testHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	loc := center(svc)

	// Unknown account -> 401 -> ErrUnknownAccount.
	if _, err := remote.PingClient("ghost", loc); err != ErrUnknownAccount {
		t.Errorf("err = %v, want ErrUnknownAccount", err)
	}
	// Bad query params -> 400.
	resp, err := http.Get(ts.URL + "/pingClient?client=x&lat=abc&lng=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	// Missing client id on login -> 400.
	resp, err = http.Post(ts.URL+"/login", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("login status = %d, want 400", resp.StatusCode)
	}
	// Out of region -> 404.
	if err := remote.Register("far"); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.PingClient("far", geo.LatLng{}); err != ErrOutOfService {
		t.Errorf("err = %v, want ErrOutOfService", err)
	}
}

func TestHTTPRateLimitStatus(t *testing.T) {
	svc, ts := testHTTP(t)
	remote := NewRemote(ts.URL, ts.Client())
	if err := remote.Register("heavy"); err != nil {
		t.Fatal(err)
	}
	loc := center(svc)
	// Exhaust the limit in-process (faster), then observe 429 via HTTP.
	for i := 0; i < RateLimitPerHour; i++ {
		if _, err := svc.EstimatePrice("heavy", loc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := remote.EstimatePrice("heavy", loc); err != ErrRateLimited {
		t.Errorf("err = %v, want ErrRateLimited", err)
	}
}

func TestHTTPResponseIsValidJSON(t *testing.T) {
	svc, ts := testHTTP(t)
	svc.Register("raw")
	loc := center(svc)
	resp, err := http.Get(ts.URL + "/pingClient?client=raw&lat=" +
		jsonNum(loc.Lat) + "&lng=" + jsonNum(loc.Lng))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := doc["types"]; !ok {
		t.Error("response missing types field")
	}
}

func jsonNum(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}
