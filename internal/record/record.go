// Package record persists a measurement campaign's pingClient stream to
// disk and replays it later — the paper's workflow of collecting hundreds
// of gigabytes first and analyzing offline afterwards. A campaign store is
// a tsdb directory: the campaign header in its metadata, then one row
// (tsdb.Row; package wire owns the observation body) per (round, client)
// observation, one series per client. Car path vectors are dropped (no
// analysis consumes them); everything else the Dataset needs is kept.
//
// Writer records a campaign, Open and Replay read one back, and Convert
// (convert.go) imports an old gzip JSON-lines recording or exports text.
package record

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// Version is the current campaign header version. Version 2 added explicit
// gap rows (failed pings recorded as holes, not silently dropped).
const Version = 2

// ErrTruncated marks a store with damaged data (a flipped byte in a
// sealed chunk, a partial copy). Replay returns it wrapped after
// delivering every row before the damage, so callers can analyze the
// partial data: errors.Is(err, ErrTruncated) distinguishes "the tail is
// missing" from "the store is unreadable".
var ErrTruncated = errors.New("record: truncated recording")

// errNotStore marks a path that exists but is not a directory, which is
// what an old gzip recording handed to Open is.
var errNotStore = errors.New("not a campaign store")

// Header opens every recording.
type Header struct {
	Version int         `json:"version"`
	City    string      `json:"city"`
	Start   int64       `json:"start"`
	Clients []geo.Point `json:"clients"`
	// ClientIDs names each series' client account, index-aligned with
	// Clients. Batch recordings may omit it (their series order is the
	// campaign's construction order); the live bus ingester writes it so
	// a resumed ingest maps returning clients to their original series.
	ClientIDs []string `json:"client_ids,omitempty"`
}

// CampaignWriter is the write side of a campaign store, which cmd/measure
// attaches as a campaign sink.
type CampaignWriter interface {
	client.Sink
	client.GapSink
	Close() error
	Written() (rows, gaps int64)
}

// StoreTSDB is the one store kind Create accepts (as does "").
const StoreTSDB = "tsdb"

// Writer streams a campaign into a store: one series per client. It
// implements client.Sink (and client.GapSink: failed pings are written as
// explicit gap rows, the way the paper's dataset accounts for its ~2.5%
// loss), so it can be attached to a campaign next to the live Dataset.
type Writer struct {
	db  *tsdb.DB
	err error
	// rows counts rows written (on a resumed store, recovered ones
	// included); gaps counts the gap rows among them.
	rows, gaps int64
	// pendingGaps buffers the round's failed pings until EndRound, when
	// the round's timestamp is known.
	pendingGaps []tsdb.Row
}

// Create creates (or reopens) a campaign store at dir: one Commit (one WAL
// fsync) per ping round. The campaign header is stored in the tsdb
// metadata; reopening an existing store resumes it (rows recovered from
// the WAL are counted as written). kind must be "" or StoreTSDB. metrics
// may be nil; the store reports compression/fsync/compaction metrics to it.
func Create(kind, dir string, hdr Header, metrics *obs.Registry) (CampaignWriter, error) {
	if kind != "" && kind != StoreTSDB {
		return nil, fmt.Errorf("record: unknown store kind %q (want %s)", kind, StoreTSDB)
	}
	db, err := openStore(dir, &hdr, metrics)
	if err != nil {
		return nil, err
	}
	return &Writer{db: db, rows: int64(db.Recovered())}, nil
}

// openStore opens (or resumes) the writable tsdb store at dir; *hdr,
// stamped with the current Version, is the campaign header of a fresh one.
func openStore(dir string, hdr *Header, metrics *obs.Registry) (*tsdb.DB, error) {
	hdr.Version = Version
	extra, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	return tsdb.Open(dir, tsdb.Options{Extra: extra, Metrics: metrics})
}

func (w *Writer) append(row tsdb.Row) {
	if w.err != nil {
		return
	}
	if w.err = w.db.Append(row); w.err != nil {
		return
	}
	w.rows++
	if row.Gap {
		w.gaps++
	}
}

// Observe implements client.Sink.
func (w *Writer) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	w.append(tsdb.Row{Time: resp.Time, Series: clientIdx, Types: wire.FromResponse(resp)})
}

// ObserveGap implements client.GapSink. The row is buffered until
// EndRound supplies the round's timestamp (a gap can precede the round's
// first successful ping, whose response carries the time).
func (w *Writer) ObserveGap(clientIdx int, pos geo.Point, lastSeen int64, err error) {
	reason := ""
	if err != nil {
		reason = err.Error()
	}
	w.pendingGaps = append(w.pendingGaps, tsdb.Row{Series: clientIdx, Gap: true, Reason: reason})
}

// EndRound implements client.Sink: the round's buffered gap rows get its
// timestamp and the round is committed (one WAL fsync). Rounds are
// reconstructed on replay from the shared timestamp. (If every ping in a
// round failed, the gaps attach to the previous round's timestamp — the
// closest time the recording knows.)
func (w *Writer) EndRound(now int64) {
	for _, row := range w.pendingGaps {
		row.Time = now
		w.append(row)
	}
	w.pendingGaps = w.pendingGaps[:0]
	if w.err == nil {
		w.err = w.db.Commit()
	}
}

// Close seals the store.
func (w *Writer) Close() error {
	cerr := w.db.Close()
	if w.err != nil {
		return w.err
	}
	return cerr
}

// Written reports the rows (total) and gap rows recorded so far.
func (w *Writer) Written() (rows, gaps int64) { return w.rows, w.gaps }

// Open opens the campaign store at dir read-only and decodes its header.
// It is the one place that decides what a store is: a path that exists but
// is not a directory (an old gzip recording) is refused with the command
// that converts it. The caller closes the db.
func Open(dir string) (*tsdb.DB, Header, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, Header{}, err
	}
	if !fi.IsDir() {
		return nil, Header{}, fmt.Errorf("record: %s: %w (an old gzip recording converts with: tsdbtool convert -in %s -out DIR)",
			dir, errNotStore, dir)
	}
	db, err := tsdb.Open(dir, tsdb.Options{ReadOnly: true})
	if err != nil {
		return nil, Header{}, err
	}
	hdr, err := ReadHeader(db)
	if err != nil {
		db.Close()
		return nil, hdr, err
	}
	return db, hdr, nil
}

// ReadHeader decodes the campaign header a store carries.
func ReadHeader(db *tsdb.DB) (Header, error) {
	var hdr Header
	if len(db.Extra()) == 0 {
		return hdr, errors.New("record: tsdb store has no campaign header")
	}
	if err := json.Unmarshal(db.Extra(), &hdr); err != nil {
		return hdr, fmt.Errorf("record: tsdb store header: %w", err)
	}
	if hdr.Version != Version {
		return hdr, fmt.Errorf("record: unsupported version %d", hdr.Version)
	}
	return hdr, nil
}

// MinTime and MaxTime are open range bounds for Replay: [MinTime, MaxTime)
// covers every observation.
const (
	MinTime = int64(-1) << 62
	MaxTime = int64(1) << 62
)

// Replay streams the rows of db with from ≤ time < to into sinks in
// (time, series) order, reconstructing round boundaries (all observations
// of one round share a timestamp), and returns the number of rounds
// replayed. hdr places each series (client) for the sinks. Every row is
// filled into one response that each sink borrows (see client.Sink). If a
// chunk is damaged, every row before it is delivered first and the returned
// error wraps ErrTruncated.
func Replay(db *tsdb.DB, hdr Header, from, to int64, sinks ...client.Sink) (rounds int64, err error) {
	var resp core.PingResponse
	cur := int64(-1)
	endRound := func() {
		for _, s := range sinks {
			s.EndRound(cur)
		}
		rounds++
	}
	it := db.QueryAll(from, to)
	for it.Next() {
		row := it.Row()
		if cur >= 0 && row.Time != cur {
			endRound()
		}
		cur = row.Time
		var pos geo.Point
		if row.Series >= 0 && row.Series < len(hdr.Clients) {
			pos = hdr.Clients[row.Series]
		}
		if row.Gap {
			// The reason is passed through verbatim so a recording survives
			// conversions without accreting wrapper prefixes.
			gapErr := errors.New(row.Reason)
			for _, s := range sinks {
				if gs, ok := s.(client.GapSink); ok {
					gs.ObserveGap(row.Series, pos, row.Time, gapErr)
				}
			}
			continue
		}
		if err := wire.FillResponse(&resp, row.Time, row.Types); err != nil {
			return rounds, fmt.Errorf("record: %w", err)
		}
		for _, s := range sinks {
			s.Observe(row.Series, pos, &resp)
		}
	}
	if cur >= 0 {
		endRound()
	}
	if err := it.Err(); err != nil {
		// A damaged chunk behaves like a truncated tail: partial data plus
		// a sentinel the caller can tolerate.
		return rounds, fmt.Errorf("record: %v: %w", err, ErrTruncated)
	}
	return rounds, nil
}

// ReplayPathRange is Open, Replay and Close: it replays the rows of the
// store at dir with from ≤ time < to, reading only the chunks that
// overlap the window.
func ReplayPathRange(dir string, from, to int64, sinks ...client.Sink) (Header, int64, error) {
	db, hdr, err := Open(dir)
	if err != nil {
		return hdr, 0, err
	}
	defer db.Close()
	rounds, err := Replay(db, hdr, from, to, sinks...)
	return hdr, rounds, err
}
