// LiveIngester: the bus→tsdb bridge. It consumes api.pings events off
// the event bus and writes the exact rows the poll-based campaign
// (measure -record) would have written, so cmd/analyze works
// unchanged on a store that was ingested live.
//
// Series assignment: the first time a client ID appears it gets the next
// series index, and the growing ID↔series map is persisted in the
// campaign header (tsdb Extra) — a restarted ingester maps returning
// clients back to their original series. The topic is one log delivered
// in publish order, so the clients of a campaign that pings them in
// order get their campaign indices as series numbers, as in a
// poll-recorded store.
//
// Delivery is at-least-once: after a crash between tsdb commit and
// consumer-offset commit, the bus redelivers the tail. The ingester
// deduplicates against each series' newest stored timestamp
// (tsdb.SeriesLastTime), which survives restart, so replayed rows are
// skipped rather than double-appended.

package record

import (
	"encoding/json"
	"fmt"

	"repro/internal/bus"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Pings reads api.pings as a campaign's rows, for the live ingester and
// for analyze -follow: it decodes each ping, numbers its client (a client
// seen for the first time gets the next series), and refuses a ping at or
// before its series' newest row (a redelivery, or a second ping of a
// client in one round). Not safe for concurrent use.
type Pings struct {
	series map[string]int // client ID → series index
	last   map[int]int64  // series → newest row's time (dedup floor)
	// Dups counts the pings refused.
	Dups int64
}

// NewPings returns a reader whose series are numbered from 0.
func NewPings() *Pings {
	return &Pings{series: make(map[string]int), last: make(map[int]int64)}
}

// Read decodes ev into a row of series. series is -1 for an event that
// adds no row: one that is not a ping, or a ping Read refuses. A payload
// that does not decode is an error.
func (p *Pings) Read(ev bus.Event) (o bus.Observation, series int, err error) {
	if ev.Kind != bus.KindPing || len(ev.Data) == 0 {
		return o, -1, nil
	}
	if o, err = bus.DecodeObservation(ev.Data); err != nil {
		return o, -1, err
	}
	series, seen := p.series[o.Client]
	if !seen {
		series = len(p.series)
		p.series[o.Client] = series
	}
	if last, ok := p.last[series]; ok && o.Time <= last {
		// The batch path never writes two rows of a series with one
		// timestamp, so neither does a reader of the topic.
		p.Dups++
		return o, -1, nil
	}
	p.last[series] = o.Time
	return o, series, nil
}

// LiveIngester writes bus ping events into a tsdb campaign store. Not
// safe for concurrent use: one goroutine drives it (the bus consumer
// loop).
type LiveIngester struct {
	db    *tsdb.DB
	proj  *geo.Projection
	hdr   Header
	pings *Pings

	// roundTime is the timestamp of the round currently accumulating;
	// an event with a later time commits the finished round first.
	roundTime    int64
	roundOpen    bool
	rows, rounds int64
}

// NewLiveIngester opens (or resumes) a tsdb campaign store at dir fed
// from the bus. hdr supplies City and Start for a fresh store; proj maps
// client ping locations into the store's plane coordinates. On resume
// the existing header wins and its client→series map is adopted.
func NewLiveIngester(dir string, hdr Header, proj *geo.Projection, metrics *obs.Registry) (*LiveIngester, error) {
	db, err := openStore(dir, &hdr, metrics)
	if err != nil {
		return nil, err
	}
	ing := &LiveIngester{db: db, proj: proj, hdr: hdr, pings: NewPings()}
	if stored, err := ReadHeader(db); err == nil {
		ing.hdr = stored
	}
	if len(ing.hdr.ClientIDs) != len(ing.hdr.Clients) && len(ing.hdr.ClientIDs) > 0 {
		db.Close()
		return nil, fmt.Errorf("record: %s: header has %d client IDs for %d clients",
			dir, len(ing.hdr.ClientIDs), len(ing.hdr.Clients))
	}
	for i, id := range ing.hdr.ClientIDs {
		ing.pings.series[id] = i
		if t, ok := db.SeriesLastTime(i); ok {
			ing.pings.last[i] = t
		}
	}
	return ing, nil
}

// Handle ingests one bus event. Non-ping events are ignored, so the
// whole api.pings topic can be piped in unfiltered. It reports whether
// the event closed out a ping round (one tsdb commit) — the caller
// commits its consumer offsets on that signal, keeping "rows durable"
// ahead of "offsets durable" (at-least-once).
func (ing *LiveIngester) Handle(ev bus.Event) (roundDone bool, err error) {
	o, series, err := ing.pings.Read(ev)
	if err != nil {
		return false, fmt.Errorf("record: ping event %d: %w", ev.Seq, err)
	}
	if series < 0 {
		return false, nil
	}

	// A later timestamp means every client of the previous round has
	// reported (the campaign serializes rounds): seal it.
	if ing.roundOpen && o.Time > ing.roundTime {
		if err := ing.commitRound(); err != nil {
			return false, err
		}
		roundDone = true
	}
	if series == len(ing.hdr.ClientIDs) {
		if err := ing.addClient(&o); err != nil {
			return roundDone, err
		}
	}
	if err := ing.db.Append(tsdb.Row{Time: o.Time, Series: series, Types: o.Types}); err != nil {
		return roundDone, err
	}
	ing.rows++
	ing.roundTime = o.Time
	ing.roundOpen = true
	return roundDone, nil
}

// addClient persists the header grown by a first-seen client, which
// Pings gave the next series.
func (ing *LiveIngester) addClient(o *bus.Observation) error {
	ing.hdr.ClientIDs = append(ing.hdr.ClientIDs, o.Client)
	ing.hdr.Clients = append(ing.hdr.Clients, ing.proj.ToPlane(geo.LatLng{Lat: o.Lat, Lng: o.Lng}))
	extra, err := json.Marshal(ing.hdr)
	if err != nil {
		return err
	}
	return ing.db.SetExtra(extra)
}

// commitRound makes the accumulated round durable (one WAL fsync, like
// the batch writer's EndRound).
func (ing *LiveIngester) commitRound() error {
	ing.roundOpen = false
	ing.rounds++
	return ing.db.Commit()
}

// Stats reports rows appended, duplicate pings skipped (see Pings) and
// rounds committed by this ingester instance.
func (ing *LiveIngester) Stats() (rows, dups, rounds int64) {
	return ing.rows, ing.pings.Dups, ing.rounds
}

// Close seals the open round, if any, and closes the store.
func (ing *LiveIngester) Close() error {
	var err error
	if ing.roundOpen {
		err = ing.commitRound()
	}
	if cerr := ing.db.Close(); err == nil {
		err = cerr
	}
	return err
}
