// Package bus is an embedded, stdlib-only event broker: topics that are
// each one append-only log on disk, consumer groups with committed
// offsets that survive restart, and cross-process tailing. It is the
// streaming counterpart of the batch measure→record→analyze pipeline: the
// backend layers publish typed events as they happen, and consumers (the
// live tsdb ingester, the streaming analyzer, the surgemap tail) turn
// them into the always-on measurement system the longitudinal-audit
// literature calls for.
//
// Guarantees:
//
//   - total order per topic: every reader of a topic — a consumer group
//     or a cross-process Tailer — receives its events in publish order,
//     numbered by Seq densely from 0;
//   - at-least-once delivery: a consumer that crashes after processing
//     but before Commit re-reads from its last committed offset;
//   - nothing buffered in memory; a reader never holds up a publisher:
//     every reader reads the log back from disk, however far behind it
//     is, and every published event is written to it.
package bus

import "repro/internal/wire"

// Kind identifies an event's type. The zero value is invalid.
type Kind uint8

// Event kinds, one per instrumented behaviour of the backend layers.
const (
	_ Kind = iota
	// sim: driver lifecycle and trips.
	KindDriverSpawn   // a driver session came online (organic arrival)
	KindDriverOffline // a session ended (organic death)
	KindDriverSuspend // coordinated-logoff suspension (ForceOffline)
	KindDriverResume  // a suspended driver returned as a fresh session
	KindTripDispatch  // a request booked a driver (Num = price multiplier)
	KindTripComplete  // a trip finished; the car is visible again
	// surge: one area's multiplier moved at a 5-minute update.
	KindSurgeChange // Num = new multiplier, Area = area index
	// api: the serving surface.
	KindPing     // a pingClient request was served (Data = Observation)
	KindRegister // an account was created
	// chaos: a fault was injected into a request (Str = fault kind).
	KindFault
	kindEnd
)

var kindNames = [kindEnd]string{
	KindDriverSpawn:   "driver-spawn",
	KindDriverOffline: "driver-offline",
	KindDriverSuspend: "driver-suspend",
	KindDriverResume:  "driver-resume",
	KindTripDispatch:  "trip-dispatch",
	KindTripComplete:  "trip-complete",
	KindSurgeChange:   "surge-change",
	KindPing:          "ping",
	KindRegister:      "register",
	KindFault:         "fault",
}

// String returns the kind's wire-stable name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Topic names the backend publishes on. One topic per producing layer
// keeps consumers cheap: the tsdb ingester subscribes to pings only, the
// surgemap tail to surge changes only.
const (
	TopicCars   = "sim.cars"      // driver lifecycle + trips, keyed by session
	TopicSurge  = "surge.changes" // multiplier changes, keyed by area label
	TopicPings  = "api.pings"     // served pings, keyed by client ID
	TopicFaults = "chaos.faults"  // injected faults, keyed by fault kind
)

// Event is one published record: a small fixed schema chosen so every
// layer's events fit without per-kind structs — Data carries the one
// large payload (ping observations).
//
// The broker keeps nothing of an event after Publish returns: the caller
// may reuse its Data buffer at once.
type Event struct {
	// Seq is the event's offset within its topic, assigned by Publish
	// (dense, starting at 0, in publish order).
	Seq int64
	// Time is the simulation time the event happened, in seconds.
	Time int64
	Kind Kind
	// Key names what the event is about: driver session, area label,
	// client ID or fault kind.
	Key string
	// Area is the surge-area index the event happened in (-1 outside).
	Area int32
	// Num is the kind's numeric payload: price multiplier for dispatches,
	// new multiplier for surge changes, 0 otherwise.
	Num float64
	// Str is the kind's string payload: product name for driver/trip
	// events, fault kind for chaos events.
	Str string
	// Data is the kind's opaque payload: an encoded Observation for
	// KindPing, nil otherwise.
	Data []byte
}

// Observation is the bus-side mirror of one pingClient response: what the
// live tsdb ingester needs to reconstruct exactly the rows the poll-based
// recorder writes, plus the client's reported location so the ingester
// can build the campaign header. Car path vectors are dropped, as both
// campaign stores drop them.
type Observation struct {
	Client   string
	Lat, Lng float64 // the client's reported (wire) location
	Time     int64
	Types    []wire.TypeObs
}
