package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geo"
)

// DriverState is the lifecycle state of an online driver. Offline drivers
// do not exist in the world; a driver session starts at spawn and ends when
// the driver goes offline (at which point its randomized public ID dies
// with it, as the paper observed in §3.3).
type DriverState int

// Driver lifecycle states. Only idle drivers are visible in pingClient
// responses — a booked car disappears from the map, which is exactly the
// "death" signal the paper uses as its fulfilled-demand upper bound.
const (
	StateIdle DriverState = iota
	StateEnRoute
	StateOnTrip
)

// String names the state for diagnostics.
func (s DriverState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateEnRoute:
		return "enroute"
	case StateOnTrip:
		return "ontrip"
	default:
		return fmt.Sprintf("DriverState(%d)", int(s))
	}
}

// pathLen is the number of recent positions kept for the pingClient path
// vector.
const pathLen = 5

// PoolStop is one queued stop of a shared UberPOOL trip.
type PoolStop struct {
	Pos  geo.Point
	Drop bool // true: a rider leaves; false: a rider boards
}

// Driver is one online driver session.
type Driver struct {
	ID      int64  // stable internal id (never exposed)
	Session string // randomized public id, new per online session
	Type    core.VehicleType
	Pos     geo.Point
	State   DriverState

	// Pickup is the passenger position while en-route; Dest is the
	// current stop while on-trip. For UberPOOL, destDrop distinguishes
	// pickup stops (a second rider boarding) from drop-offs, and stops
	// queues the remaining route.
	Pickup   geo.Point
	Dest     geo.Point
	destDrop bool
	stops    []PoolStop

	// PoolRiders is the number of passengers currently in a POOL car
	// (0 for non-POOL products outside a trip, 1 during a plain trip).
	PoolRiders int

	// OfflineAt is when the driver intends to end the session; a driver
	// mid-trip finishes the trip first.
	OfflineAt int64

	// PriceFactor is the driver's self-set price multiplier under
	// MarketDriverSet (the Sidecar-style market of §8); ignored in the
	// other markets. Drivers adapt it win-stay/lose-shift: quick bookings
	// raise it, long idle stretches lower it.
	PriceFactor float64
	// idleSince tracks how long the driver has waited for a fare.
	idleSince int64

	// EarnedUSD is the driver's take-home this session (§2: Uber retains
	// 20% of each fare and pays the rest to the driver). Fares are
	// upfront: computed at booking from the trip estimate.
	EarnedUSD float64

	// cruise target while idle.
	cruiseTarget geo.Point
	cruiseUntil  int64

	// ring buffer of recent positions.
	path    [pathLen]geo.Point
	pathN   int
	pathPos int
}

// PathPoints returns the recent positions oldest-first.
func (d *Driver) PathPoints() []geo.Point {
	out := make([]geo.Point, 0, d.pathN)
	start := d.pathPos - d.pathN
	for i := 0; i < d.pathN; i++ {
		idx := (start + i + 2*pathLen) % pathLen
		out = append(out, d.path[idx])
	}
	return out
}

// newSessionID draws a fresh randomized public car ID, mimicking Uber's
// per-session ID randomization.
func newSessionID(rng *rand.Rand) string {
	return fmt.Sprintf("c%08x%08x", rng.Uint32(), rng.Uint32())
}
