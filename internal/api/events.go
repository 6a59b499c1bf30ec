// API event emission. The query path is lock-free and concurrent, so the
// sink lives behind an atomic pointer and the sink function itself must
// be safe for concurrent use (bus.Topic.Publish is).

package api

import (
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/wire"
)

// eventSinks holds the service's event callbacks; one immutable struct
// swapped atomically.
type eventSinks struct {
	pings     func(bus.Event) // served pingClient responses
	registers func(bus.Event) // first-time account registrations
}

// SetEventSinks installs callbacks for ping and registration events.
// Either may be nil. Ping events carry the full served response encoded
// as a bus Observation in Data — the payload the live tsdb ingester
// persists. Callbacks run on the request goroutine, concurrently.
func (s *Service) SetEventSinks(pings, registers func(bus.Event)) {
	if pings == nil && registers == nil {
		s.events.Store(nil)
		return
	}
	s.events.Store(&eventSinks{pings: pings, registers: registers})
}

// emitPing publishes the response served to one pingClient call.
func (s *Service) emitPing(clientID string, loc geo.LatLng, area int, resp *core.PingResponse) {
	sinks := s.events.Load()
	if sinks == nil || sinks.pings == nil {
		return
	}
	o := bus.Observation{
		Client: clientID,
		Lat:    loc.Lat,
		Lng:    loc.Lng,
		Time:   resp.Time,
		Types:  wire.FromResponse(resp),
	}
	sinks.pings(bus.Event{
		Time: resp.Time,
		Kind: bus.KindPing,
		Key:  clientID,
		Area: int32(area),
		Data: bus.AppendObservation(nil, &o),
	})
}

// emitRegister publishes a first-time account registration.
func (s *Service) emitRegister(clientID string, now int64) {
	sinks := s.events.Load()
	if sinks == nil || sinks.registers == nil {
		return
	}
	sinks.registers(bus.Event{Time: now, Kind: bus.KindRegister, Key: clientID})
}
