// Package core defines the domain types shared by every layer of the
// reproduction — vehicle types, the pingClient wire format, fare schedules —
// and the Service interface that both the simulated Uber backend
// (internal/api) and the taxi ground-truth replayer (internal/taxi)
// implement. The measurement apparatus (internal/client) is written purely
// against this interface, which is what lets the paper's §3.5 validation
// work: the same methodology code runs against either backend.
package core

import (
	"fmt"

	"repro/internal/geo"
)

// VehicleType enumerates the Uber products the paper observes (§2).
type VehicleType int

// The vehicle types offered in SF and Manhattan during the measurement
// period. UberT is an ordinary taxi hailed through the app and is not
// subject to surge pricing.
const (
	UberX VehicleType = iota
	UberXL
	UberBLACK
	UberSUV
	UberFAMILY
	UberPOOL
	UberWAV
	UberRUSH
	UberT
	numVehicleTypes
)

// AllVehicleTypes lists every product in declaration order.
func AllVehicleTypes() []VehicleType {
	out := make([]VehicleType, numVehicleTypes)
	for i := range out {
		out[i] = VehicleType(i)
	}
	return out
}

// NumVehicleTypes is the number of distinct products.
const NumVehicleTypes = int(numVehicleTypes)

var vehicleTypeNames = [...]string{
	"uberX", "uberXL", "uberBLACK", "uberSUV",
	"uberFAMILY", "uberPOOL", "uberWAV", "uberRUSH", "uberT",
}

// String returns the product name as the Uber API spells it.
func (v VehicleType) String() string {
	if v < 0 || int(v) >= len(vehicleTypeNames) {
		return fmt.Sprintf("VehicleType(%d)", int(v))
	}
	return vehicleTypeNames[v]
}

// ParseVehicleType converts a product name back to its VehicleType.
func ParseVehicleType(s string) (VehicleType, error) {
	for i, n := range vehicleTypeNames {
		if n == s {
			return VehicleType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown vehicle type %q", s)
}

// Surgeable reports whether the product participates in surge pricing.
// UberT (ordinary taxis) does not (§4.2).
func (v VehicleType) Surgeable() bool { return v != UberT }

// CarView is one vehicle as seen in a pingClient response: a per-session
// randomized ID, the current position, and a short path vector tracing
// recent movement (§3.3). IDs are NOT stable across driver sessions, which
// is why the paper cannot track individual drivers.
type CarView struct {
	ID   string       `json:"id"`
	Pos  geo.LatLng   `json:"pos"`
	Path []geo.LatLng `json:"path,omitempty"`
}

// TypeStatus is the per-product section of a pingClient response: the
// (up to) eight nearest cars, the estimated wait time, and the surge
// multiplier in effect at the queried location.
type TypeStatus struct {
	Type       VehicleType `json:"-"`
	TypeName   string      `json:"type"`
	Cars       []CarView   `json:"cars"`
	EWTSeconds float64     `json:"ewt_seconds"`
	Surge      float64     `json:"surge"`
}

// MaxVisibleCars is the number of nearest cars a client can see per product.
const MaxVisibleCars = 8

// PingResponse is the JSON document the emulated Client app receives every
// five seconds.
type PingResponse struct {
	Time  int64        `json:"time"` // simulation time, seconds
	Types []TypeStatus `json:"types"`
}

// Status returns the TypeStatus for v, or nil if the product is not offered
// at the queried location.
func (r *PingResponse) Status(v VehicleType) *TypeStatus {
	for i := range r.Types {
		if r.Types[i].Type == v {
			return &r.Types[i]
		}
	}
	return nil
}

// PriceEstimate is one entry of an estimates/price API response.
type PriceEstimate struct {
	TypeName string  `json:"type"`
	Surge    float64 `json:"surge_multiplier"`
	LowUSD   float64 `json:"low_estimate"`
	HighUSD  float64 `json:"high_estimate"`
	Currency string  `json:"currency_code"`
}

// TimeEstimate is one entry of an estimates/time API response.
type TimeEstimate struct {
	TypeName   string  `json:"type"`
	EWTSeconds float64 `json:"estimate_seconds"`
}

// Service is the measurement-facing surface of a ride-sharing backend.
// internal/api implements it for the simulated Uber service; internal/taxi
// implements it for the ground-truth taxi replayer (without surge).
//
// PingInto emulates the smartphone app's 5-second ping: clientID
// identifies the logged-in account (jitter in the April 2015 datastream was
// per-client, so the backend needs to know who is asking). It overwrites
// *dst with the answer and may reuse the capacity of dst.Types and of each
// dst.Types[i].Cars, so a caller that fills one response over and over
// allocates none, and one that keeps an answer past its next ping copies
// the slices first (strings and Paths stay valid for good). On error *dst
// is unspecified.
//
// EstimatePrice and EstimateTime emulate the public HTTP API, which serves
// surge without jitter but is rate limited per account.
type Service interface {
	PingInto(clientID string, loc geo.LatLng, dst *PingResponse) error
	EstimatePrice(clientID string, loc geo.LatLng) ([]PriceEstimate, error)
	EstimateTime(clientID string, loc geo.LatLng) ([]TimeEstimate, error)
	// Now returns the backend's current simulation time in seconds.
	Now() int64
}

// FareSchedule is the static fare structure for one product (§2): a base
// fare plus per-mile and per-minute charges, with a minimum. The surge
// multiplier scales the metered part.
type FareSchedule struct {
	BaseUSD       float64
	PerMileUSD    float64
	PerMinuteUSD  float64
	MinimumUSD    float64
	BookingFeeUSD float64
}

// Fare computes the fare for a trip of the given distance and duration
// under multiplier surge.
func (f FareSchedule) Fare(meters float64, seconds float64, surge float64) float64 {
	if surge < 1 {
		surge = 1
	}
	miles := meters / 1609.344
	minutes := seconds / 60
	metered := f.BaseUSD + f.PerMileUSD*miles + f.PerMinuteUSD*minutes
	if metered < f.MinimumUSD {
		metered = f.MinimumUSD
	}
	return metered*surge + f.BookingFeeUSD
}

// Quote is the fare the estimates/price endpoint quotes under multiplier
// surge: the one nominal 5 km / 15 minute trip every estimate prices.
func (f FareSchedule) Quote(surge float64) float64 { return f.Fare(5000, 900, surge) }

// Estimate is the estimates/price entry for product vt under multiplier
// surge: the nominal Quote with a ±20% band around it.
func (f FareSchedule) Estimate(vt VehicleType, surge float64) PriceEstimate {
	mid := f.Quote(surge)
	return PriceEstimate{TypeName: vt.String(), Surge: surge, LowUSD: mid * 0.8, HighUSD: mid * 1.2, Currency: "USD"}
}

// DefaultFares returns the circa-2015 fare schedules used for price
// estimates, keyed by product. Values follow Uber's published SF rate card
// of the period; they only need to be plausible since the paper never
// compares absolute fares.
func DefaultFares() map[VehicleType]FareSchedule {
	return map[VehicleType]FareSchedule{
		UberX:      {BaseUSD: 2.20, PerMileUSD: 1.30, PerMinuteUSD: 0.26, MinimumUSD: 6.55, BookingFeeUSD: 1.00},
		UberXL:     {BaseUSD: 5.00, PerMileUSD: 2.15, PerMinuteUSD: 0.45, MinimumUSD: 8.00, BookingFeeUSD: 1.00},
		UberBLACK:  {BaseUSD: 8.00, PerMileUSD: 3.75, PerMinuteUSD: 0.65, MinimumUSD: 15.00},
		UberSUV:    {BaseUSD: 15.00, PerMileUSD: 4.50, PerMinuteUSD: 0.90, MinimumUSD: 25.00},
		UberFAMILY: {BaseUSD: 2.20, PerMileUSD: 1.30, PerMinuteUSD: 0.26, MinimumUSD: 6.55, BookingFeeUSD: 3.00},
		UberPOOL:   {BaseUSD: 2.20, PerMileUSD: 1.00, PerMinuteUSD: 0.20, MinimumUSD: 5.00, BookingFeeUSD: 1.00},
		UberWAV:    {BaseUSD: 2.20, PerMileUSD: 1.30, PerMinuteUSD: 0.26, MinimumUSD: 6.55, BookingFeeUSD: 1.00},
		UberRUSH:   {BaseUSD: 3.00, PerMileUSD: 2.50, PerMinuteUSD: 0.00, MinimumUSD: 7.00},
		UberT:      {BaseUSD: 2.50, PerMileUSD: 2.50, PerMinuteUSD: 0.50, MinimumUSD: 2.50},
	}
}
