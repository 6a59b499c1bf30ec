package api

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func testBackend(t testing.TB, jitter bool) *Service {
	t.Helper()
	s := Scenario{City: "manhattan", Seed: 7, Jitter: jitter}.Build()
	s.Register("tester")
	s.RunUntil(600)
	return s
}

func center(s *Service) geo.LatLng {
	return s.World().Projection().ToLatLng(geo.Point{})
}

func TestPingClientBasics(t *testing.T) {
	s := testBackend(t, false)
	resp, err := s.PingClient("tester", center(s))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Time != 600 {
		t.Errorf("Time = %d, want 600", resp.Time)
	}
	x := resp.Status(core.UberX)
	if x == nil {
		t.Fatal("no UberX section")
	}
	if len(x.Cars) == 0 || len(x.Cars) > core.MaxVisibleCars {
		t.Errorf("UberX cars = %d, want 1..8", len(x.Cars))
	}
	if x.EWTSeconds <= 0 {
		t.Errorf("EWT = %v", x.EWTSeconds)
	}
	if x.Surge < 1 {
		t.Errorf("surge = %v", x.Surge)
	}
	// UberT present in Manhattan and never surged.
	ut := resp.Status(core.UberT)
	if ut == nil {
		t.Fatal("Manhattan should offer UberT")
	}
	if ut.Surge != 1 {
		t.Errorf("UberT surge = %v, want 1", ut.Surge)
	}
}

func TestPingClientAuth(t *testing.T) {
	s := testBackend(t, false)
	if _, err := s.PingClient("stranger", center(s)); !errors.Is(err, ErrUnknownAccount) {
		t.Errorf("err = %v, want ErrUnknownAccount", err)
	}
	s.Register("stranger")
	if _, err := s.PingClient("stranger", center(s)); err != nil {
		t.Errorf("after Register: %v", err)
	}
	// Registering twice is a no-op.
	s.Register("stranger")
	if got := s.Accounts(); got != 2 {
		t.Errorf("Accounts = %d, want 2", got)
	}
}

func TestPingClientOutOfRegion(t *testing.T) {
	s := testBackend(t, false)
	far := geo.LatLng{Lat: 0, Lng: 0}
	if _, err := s.PingClient("tester", far); !errors.Is(err, ErrOutOfService) {
		t.Errorf("err = %v, want ErrOutOfService", err)
	}
}

func TestPingClientNotRateLimited(t *testing.T) {
	s := testBackend(t, false)
	loc := center(s)
	// The app pings every 5 s forever; way more than 1000 pings must work.
	for i := 0; i < RateLimitPerHour+10; i++ {
		if _, err := s.PingClient("tester", loc); err != nil {
			t.Fatalf("ping %d failed: %v", i, err)
		}
	}
}

func TestEstimateEndpointsRateLimited(t *testing.T) {
	s := testBackend(t, false)
	loc := center(s)
	for i := 0; i < RateLimitPerHour; i++ {
		if _, err := s.EstimatePrice("tester", loc); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if _, err := s.EstimatePrice("tester", loc); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// Time endpoint shares the same budget.
	if _, err := s.EstimateTime("tester", loc); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	// A new hour resets the limit.
	s.RunUntil(3700)
	if _, err := s.EstimatePrice("tester", loc); err != nil {
		t.Fatalf("after hour rollover: %v", err)
	}
}

func TestEstimatePriceShape(t *testing.T) {
	s := testBackend(t, false)
	prices, err := s.EstimatePrice("tester", center(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) == 0 {
		t.Fatal("no price estimates")
	}
	for _, p := range prices {
		if p.LowUSD <= 0 || p.HighUSD < p.LowUSD {
			t.Errorf("%s: bad range [%v, %v]", p.TypeName, p.LowUSD, p.HighUSD)
		}
		if p.Surge < 1 {
			t.Errorf("%s: surge %v < 1", p.TypeName, p.Surge)
		}
		if p.Currency != "USD" {
			t.Errorf("currency = %q", p.Currency)
		}
		if p.TypeName == core.UberT.String() && p.Surge != 1 {
			t.Errorf("UberT surged via API: %v", p.Surge)
		}
	}
}

func TestEstimateTimeShape(t *testing.T) {
	s := testBackend(t, false)
	times, err := s.EstimateTime("tester", center(s))
	if err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 {
		t.Fatal("no time estimates")
	}
	for _, e := range times {
		if e.EWTSeconds <= 0 {
			t.Errorf("%s: EWT %v", e.TypeName, e.EWTSeconds)
		}
	}
}

func TestAPIAndClientStreamsAgreeWithoutJitter(t *testing.T) {
	s := testBackend(t, false)
	loc := center(s)
	// After the client switch moment both streams serve cur; scan a few
	// intervals asserting they never diverge for long. Without jitter the
	// only divergence window is between the two switch times.
	for i := 0; i < 20; i++ {
		s.RunUntil(s.Now() + 300)
		// Move to ~2.5 minutes into the interval: both streams switched.
		s.RunUntil(s.Now()/300*300 + 150)
		ping, err := s.PingClient("tester", loc)
		if err != nil {
			t.Fatal(err)
		}
		prices, err := s.EstimatePrice("tester", loc)
		if err != nil {
			t.Fatal(err)
		}
		var apiSurge float64
		for _, p := range prices {
			if p.TypeName == core.UberX.String() {
				apiSurge = p.Surge
			}
		}
		if got := ping.Status(core.UberX).Surge; got != apiSurge {
			t.Errorf("interval %d: client %v != api %v", i, got, apiSurge)
		}
	}
}

func TestDeterministicResponses(t *testing.T) {
	collect := func() []float64 {
		s := Scenario{City: "sf", Seed: 11, Jitter: true}.Build()
		s.Register("a")
		var out []float64
		loc := s.World().Projection().ToLatLng(geo.Point{X: 100, Y: 100})
		for i := 0; i < 100; i++ {
			s.RunUntil(s.Now() + 60)
			resp, err := s.PingClient("a", loc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp.Status(core.UberX).Surge, resp.Status(core.UberX).EWTSeconds)
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("responses diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
