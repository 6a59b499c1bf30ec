// API event emission. The query path is lock-free and concurrent, so the
// sink lives behind an atomic pointer and the sink function itself must
// be safe for concurrent use (bus.Topic.Publish is).

package api

import (
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
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

// emitPing publishes, through sinks.pings, the answer served at now to one
// pingClient call in its stored form.
func (s *Service) emitPing(sinks *eventSinks, clientID string, loc geo.LatLng, area int, now int64, types []wire.TypeObs) {
	o := bus.Observation{
		Client: clientID,
		Lat:    loc.Lat,
		Lng:    loc.Lng,
		Time:   now,
		Types:  types,
	}
	sinks.pings(bus.Event{
		Time: now,
		Kind: bus.KindPing,
		Key:  clientID,
		Area: int32(area),
		Data: bus.AppendObservation(nil, &o),
	})
}

// typeObs is one product's section of a served ping in its stored form, as
// wire.FillTypes converts it: no path vectors.
func typeObs(vt core.VehicleType, cars []sim.NearCar, ewt, surge float64) wire.TypeObs {
	t := wire.TypeObs{Name: vt.String(), Surge: surge, EWT: ewt}
	if len(cars) > 0 {
		t.Cars = make([]wire.Car, len(cars))
	}
	for i, c := range cars {
		t.Cars[i] = wire.Car{ID: c.ID, Lat: c.Pos.Lat, Lng: c.Pos.Lng}
	}
	return t
}

// emitRegister publishes a first-time account registration.
func (s *Service) emitRegister(clientID string, now int64) {
	sinks := s.events.Load()
	if sinks == nil || sinks.registers == nil {
		return
	}
	sinks.registers(bus.Event{Time: now, Kind: bus.KindRegister, Key: clientID})
}
