package strategy

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// fakeService answers canned estimates for one product.
type fakeService struct {
	product core.VehicleType
	low     float64
	high    float64
	surge   float64
	ewt     float64
	err     error
}

func (f *fakeService) Register(string) error { return nil }

func (f *fakeService) Now() int64 { return 0 }

func (f *fakeService) PingInto(_ string, _ geo.LatLng, dst *core.PingResponse) error {
	*dst = core.PingResponse{}
	return nil
}

func (f *fakeService) EstimatePrice(string, geo.LatLng) ([]core.PriceEstimate, error) {
	if f.err != nil {
		return nil, f.err
	}
	return []core.PriceEstimate{{
		TypeName: f.product.String(), Surge: f.surge,
		LowUSD: f.low, HighUSD: f.high, Currency: "USD",
	}}, nil
}

func (f *fakeService) EstimateTime(string, geo.LatLng) ([]core.TimeEstimate, error) {
	if f.err != nil {
		return nil, f.err
	}
	return []core.TimeEstimate{{TypeName: f.product.String(), EWTSeconds: f.ewt}}, nil
}

func TestCompareCheapestAndFastest(t *testing.T) {
	uber := &fakeService{product: core.UberX, low: 8, high: 12, surge: 1.5, ewt: 120}
	taxi := &fakeService{product: core.UberT, low: 7, high: 11, surge: 1, ewt: 300}
	pc := &PriceComparison{Services: []ServiceEntry{
		{Name: "uber", Svc: uber, ClientID: "c1", Product: core.UberX},
		{Name: "taxi", Svc: taxi, ClientID: "c2", Product: core.UberT},
	}}
	c, err := pc.Compare(geo.LatLng{Lat: 40.75, Lng: -73.98})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Quotes) != 2 {
		t.Fatalf("got %d quotes, want 2", len(c.Quotes))
	}
	best := c.CheapestQuote()
	if best == nil || best.Service != "taxi" {
		t.Fatalf("cheapest = %+v, want taxi at $9", best)
	}
	if best.USD != 9 {
		t.Fatalf("cheapest USD %v, want midpoint 9", best.USD)
	}
	if c.Fastest != 0 || c.Quotes[c.Fastest].Service != "uber" {
		t.Fatalf("fastest = %+v, want uber at 120s", c.Quotes[c.Fastest])
	}
	if got := c.Savings(); got != 1 {
		t.Fatalf("savings %v, want 1 (uber mid 10 − taxi mid 9)", got)
	}
}

func TestCompareTieGoesToFirst(t *testing.T) {
	a := &fakeService{product: core.UberX, low: 10, high: 10, surge: 1, ewt: 60}
	b := &fakeService{product: core.UberT, low: 10, high: 10, surge: 1, ewt: 60}
	pc := &PriceComparison{Services: []ServiceEntry{
		{Name: "first", Svc: a, Product: core.UberX},
		{Name: "second", Svc: b, Product: core.UberT},
	}}
	c, err := pc.Compare(geo.LatLng{})
	if err != nil {
		t.Fatal(err)
	}
	if c.CheapestQuote().Service != "first" || c.Quotes[c.Fastest].Service != "first" {
		t.Fatal("ties must go to the earlier entry")
	}
	if c.Savings() != 0 {
		t.Fatalf("savings on a tie = %v, want 0", c.Savings())
	}
}

func TestCompareSkipsFailingService(t *testing.T) {
	down := &fakeService{product: core.UberX, err: errors.New("backend down")}
	up := &fakeService{product: core.UberT, low: 6, high: 8, surge: 1, ewt: 240}
	pc := &PriceComparison{Services: []ServiceEntry{
		{Name: "down", Svc: down, Product: core.UberX},
		{Name: "up", Svc: up, Product: core.UberT},
	}}
	c, err := pc.Compare(geo.LatLng{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Quotes) != 1 || c.CheapestQuote().Service != "up" {
		t.Fatalf("expected the healthy service to win alone, got %+v", c.Quotes)
	}
	if c.Savings() != 0 {
		t.Fatal("savings with one quote must be 0")
	}
	// All services down: the first error surfaces.
	pc.Services = pc.Services[:1]
	if _, err := pc.Compare(geo.LatLng{}); err == nil {
		t.Fatal("expected an error with every service down")
	}
}
