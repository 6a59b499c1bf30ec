// Event-bus wiring: connects every producing layer of the backend (sim
// driver lifecycle, surge multiplier moves, served pings and
// registrations, injected faults) to an embedded broker, and optionally
// runs the live tsdb ingester as an in-process consumer group so a
// campaign store grows while the server runs — `analyze` reads it like
// any `measure -record` store.

package main

import (
	"errors"
	"log"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/record"
)

// busRuntime is the broker plus the optional in-process ingest consumer.
type busRuntime struct {
	log    *log.Logger
	broker *bus.Broker
	open   atomic.Bool // true while the broker accepts publishes (readiness)

	cons       *bus.Consumer
	ing        *record.LiveIngester
	ingestDone chan struct{}
}

// Open reports whether the broker is accepting events — the "bus"
// readiness check: a shard configured to stream must not take traffic it
// cannot record.
func (rt *busRuntime) Open() bool { return rt != nil && rt.open.Load() }

// startBus opens the broker at dir, wires all four producers, and (when
// ingestDir is non-empty) starts the live tsdb ingester consuming the
// pings topic under the "uberd-ingest" group.
func startBus(svc *api.Service, inj *chaos.Injector, reg *obs.Registry, logger *log.Logger, dir, ingestDir string) (*busRuntime, error) {
	br, err := bus.Open(dir, reg)
	if err != nil {
		return nil, err
	}
	rt := &busRuntime{log: logger, broker: br}
	// ErrClosed is the shutdown race, not worth a log line per event.
	pub := func(t *bus.Topic) func(bus.Event) {
		return func(ev bus.Event) {
			if err := t.Publish(ev); err != nil && !errors.Is(err, bus.ErrClosed) {
				logger.Printf("bus %s: %v", t.Name(), err)
			}
		}
	}

	cars, err := br.Topic(bus.TopicCars)
	if err != nil {
		return nil, err
	}
	svc.World().SetEventSink(pub(cars))

	surgeTopic, err := br.Topic(bus.TopicSurge)
	if err != nil {
		return nil, err
	}
	svc.Engine().SetEventSink(pub(surgeTopic))

	pings, err := br.Topic(bus.TopicPings)
	if err != nil {
		return nil, err
	}
	pingPub := pub(pings)
	svc.SetEventSinks(pingPub, pingPub)

	if inj != nil {
		faults, err := br.Topic(bus.TopicFaults)
		if err != nil {
			return nil, err
		}
		faultPub := pub(faults)
		inj.SetFaultSink(func(f chaos.Fault, path string) {
			faultPub(bus.Event{Time: svc.Now(), Kind: bus.KindFault, Key: f.String(), Area: -1, Str: path})
		})
	}

	if ingestDir != "" {
		if err := rt.startIngest(svc, pings, reg, ingestDir); err != nil {
			br.Close()
			return nil, err
		}
	}
	rt.open.Store(true)
	return rt, nil
}

func (rt *busRuntime) startIngest(svc *api.Service, pings *bus.Topic, reg *obs.Registry, dir string) error {
	cons, err := pings.Subscribe("uberd-ingest")
	if err != nil {
		return err
	}
	hdr := record.Header{City: svc.World().Profile().Name, Start: svc.Now()}
	ing, err := record.NewLiveIngester(dir, hdr, svc.World().Projection(), reg)
	if err != nil {
		cons.Close()
		return err
	}
	rt.cons, rt.ing = cons, ing
	rt.ingestDone = make(chan struct{})
	go func() {
		defer close(rt.ingestDone)
		for {
			ev, ok := cons.Next()
			if !ok {
				return // broker closed and the backlog is drained
			}
			roundDone, err := ing.Handle(ev)
			if err != nil {
				rt.log.Printf("ingest: %v", err)
				continue
			}
			if roundDone {
				// Rows are durable (Handle committed the round); now the
				// offsets may follow — at-least-once, never losing rows.
				if err := cons.Commit(); err != nil {
					rt.log.Printf("ingest commit: %v", err)
				}
			}
		}
	}()
	return nil
}

// shutdown closes the broker (stopping producers), waits for the ingest
// consumer to drain the backlog, and flushes rows before offsets.
func (rt *busRuntime) shutdown(timeout time.Duration) {
	rt.open.Store(false)
	if err := rt.broker.Close(); err != nil {
		rt.log.Printf("bus close: %v", err)
	}
	if rt.ingestDone == nil {
		return
	}
	select {
	case <-rt.ingestDone:
	case <-time.After(timeout):
		rt.log.Printf("ingest drain timed out after %s", timeout)
	}
	if err := rt.ing.Close(); err != nil {
		rt.log.Printf("ingest close: %v", err)
	}
	if err := rt.cons.Commit(); err != nil {
		rt.log.Printf("ingest commit: %v", err)
	}
	rt.cons.Close()
	rows, dups, rounds := rt.ing.Stats()
	rt.log.Printf("ingested %d rows over %d rounds (%d duplicate pings skipped)", rows, rounds, dups)
}
