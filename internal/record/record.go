// Package record persists a measurement campaign's pingClient stream to
// disk and replays it later — the paper's workflow of collecting hundreds
// of gigabytes first and analyzing offline afterwards. One Writer feeds
// either of two stores holding the same rows (tsdb.Row; package wire owns
// the observation body): gzip-compressed JSON lines — a header describing
// the campaign, then one row per (round, client) observation — or a tsdb
// directory (store.go). Car path vectors are dropped (no analysis
// consumes them); everything else the Dataset needs is kept.
package record

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/tsdb"
	"repro/internal/wire"
)

// Version is the current file format version. Version 2 added explicit
// gap rows (failed pings recorded as holes, not silently dropped).
const Version = 2

// ErrTruncated marks a recording with a truncated or corrupt tail (a
// crashed campaign, a partial copy). Replay returns it wrapped after
// delivering every row it could decode, so callers can analyze the
// partial data: errors.Is(err, ErrTruncated) distinguishes "the tail is
// missing" from "the file is unreadable".
var ErrTruncated = errors.New("record: truncated recording")

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

// rowStore is the back end a Writer appends to: *tsdb.DB as it stands, or
// the gzip-JSONL stream.
type rowStore interface {
	Append(tsdb.Row) error
	// Commit makes the rows appended so far durable (a no-op for JSONL,
	// which is only whole once closed).
	Commit() error
	Close() error
}

// Writer streams a campaign into a store: one series per client. It
// implements client.Sink (and client.GapSink: failed pings are written as
// explicit gap rows, the way the paper's dataset accounts for its ~2.5%
// loss), so it can be attached to a campaign next to the live Dataset.
type Writer struct {
	store rowStore
	err   error
	// Rows counts rows written (on a resumed tsdb store, recovered ones
	// included); Gaps counts the gap rows among them.
	Rows, Gaps int64
	// pendingGaps buffers the round's failed pings until EndRound, when
	// the round's timestamp is known.
	pendingGaps []tsdb.Row
}

// jsonlStore is the gzip-JSONL back end: a header line, then one JSON row
// per Append. f is the file Create opened, nil when the caller owns w.
type jsonlStore struct {
	gz  *gzip.Writer
	bw  *bufio.Writer
	enc *json.Encoder
	f   io.Closer
}

func (s *jsonlStore) Append(row tsdb.Row) error { return s.enc.Encode(&row) }

func (s *jsonlStore) Commit() error { return nil }

func (s *jsonlStore) Close() error {
	err := s.bw.Flush()
	if err == nil {
		err = s.gz.Close()
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NewWriter writes the header and returns a sink-compatible writer of the
// gzip-JSONL format.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	return newJSONLWriter(w, nil, hdr)
}

// newJSONLWriter is NewWriter that also closes f, if not nil, on Close.
func newJSONLWriter(w io.Writer, f io.Closer, hdr Header) (*Writer, error) {
	hdr.Version = Version
	gz := gzip.NewWriter(w)
	bw := bufio.NewWriterSize(gz, 1<<16)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return nil, fmt.Errorf("record: write header: %w", err)
	}
	return &Writer{store: &jsonlStore{gz: gz, bw: bw, enc: enc, f: f}}, nil
}

func (w *Writer) append(row tsdb.Row) {
	if w.err != nil {
		return
	}
	if w.err = w.store.Append(row); w.err != nil {
		return
	}
	w.Rows++
	if row.Gap {
		w.Gaps++
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
// timestamp and the round is committed (one WAL fsync on a tsdb store).
// Rounds are reconstructed on replay from the shared timestamp. (If every
// ping in a round failed, the gaps attach to the previous round's
// timestamp — the closest time the recording knows.)
func (w *Writer) EndRound(now int64) {
	for _, row := range w.pendingGaps {
		row.Time = now
		w.append(row)
	}
	w.pendingGaps = w.pendingGaps[:0]
	if w.err == nil {
		w.err = w.store.Commit()
	}
}

// Close finalizes the store: the gzip stream is flushed and closed, a
// tsdb store sealed.
func (w *Writer) Close() error {
	cerr := w.store.Close()
	if w.err != nil {
		return w.err
	}
	return cerr
}

// Written reports the rows (total) and gap rows recorded so far.
func (w *Writer) Written() (rows, gaps int64) { return w.Rows, w.Gaps }

// openJSONL opens a gzip-JSONL recording and decodes its header, leaving
// dec at the first row; the caller closes gz. On an unsupported version
// the header is returned with the error.
func openJSONL(r io.Reader) (*gzip.Reader, *json.Decoder, Header, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, Header{}, fmt.Errorf("record: open: %w", err)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(gz, 1<<16))
	var hdr Header
	if err := dec.Decode(&hdr); err != nil {
		gz.Close()
		return nil, nil, Header{}, fmt.Errorf("record: read header: %w", err)
	}
	if hdr.Version != Version {
		gz.Close()
		return nil, nil, hdr, fmt.Errorf("record: unsupported version %d", hdr.Version)
	}
	return gz, dec, hdr, nil
}

// ReadHeader decodes only a recording's header, without decompressing the
// observation stream behind it.
func ReadHeader(r io.Reader) (Header, error) {
	gz, _, hdr, err := openJSONL(r)
	if err == nil {
		gz.Close()
	}
	return hdr, err
}

// Replay streams a recording into sinks, reconstructing round boundaries
// (all observations of one round share a timestamp). It returns the
// header and the number of rounds replayed. If the stream ends in a
// truncated or corrupt tail, every decodable row is delivered first and
// the returned error wraps ErrTruncated.
func Replay(r io.Reader, sinks ...client.Sink) (Header, int64, error) {
	return ReplayRange(r, MinTime, MaxTime, sinks...)
}

// MinTime and MaxTime are open range bounds for the *Range replay
// helpers: [MinTime, MaxTime) covers every observation.
const (
	MinTime = int64(-1) << 62
	MaxTime = int64(1) << 62
)

// ReplayRange is Replay restricted to rows with from ≤ time < to.
// Rounds outside the window are skipped entirely (no EndRound).
func ReplayRange(r io.Reader, from, to int64, sinks ...client.Sink) (Header, int64, error) {
	gz, dec, hdr, err := openJSONL(r)
	if err != nil {
		return hdr, 0, err
	}
	defer gz.Close()

	rp := newRoundPlayer(hdr, sinks)
	for {
		var rec tsdb.Row
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// A tail the campaign never finished writing (crash mid-row,
			// missing gzip trailer): deliver what decoded, mark the rest.
			rp.finish()
			return hdr, rp.rounds, fmt.Errorf("record: read row: %v: %w", err, ErrTruncated)
		}
		if rec.Time < from || rec.Time >= to {
			continue
		}
		if err := rp.play(&rec); err != nil {
			return hdr, rp.rounds, err
		}
	}
	rp.finish()
	return hdr, rp.rounds, nil
}

// roundPlayer feeds decoded rows to sinks, closing each round when the
// shared timestamp changes. It is the common replay tail for the gzip
// and tsdb stores.
type roundPlayer struct {
	hdr     Header
	sinks   []client.Sink
	curTime int64
	rounds  int64
}

func newRoundPlayer(hdr Header, sinks []client.Sink) *roundPlayer {
	return &roundPlayer{hdr: hdr, sinks: sinks, curTime: -1}
}

func (rp *roundPlayer) play(rec *tsdb.Row) error {
	if rp.curTime >= 0 && rec.Time != rp.curTime {
		rp.endRound()
	}
	rp.curTime = rec.Time
	var pos geo.Point
	if rec.Series >= 0 && rec.Series < len(rp.hdr.Clients) {
		pos = rp.hdr.Clients[rec.Series]
	}
	if rec.Gap {
		// The reason is passed through verbatim so a recording survives
		// store conversions without accreting wrapper prefixes.
		gapErr := errors.New(rec.Reason)
		for _, s := range rp.sinks {
			if gs, ok := s.(client.GapSink); ok {
				gs.ObserveGap(rec.Series, pos, rec.Time, gapErr)
			}
		}
		return nil
	}
	resp, err := wire.ToResponse(rec.Time, rec.Types)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	for _, s := range rp.sinks {
		s.Observe(rec.Series, pos, resp)
	}
	return nil
}

func (rp *roundPlayer) endRound() {
	for _, s := range rp.sinks {
		s.EndRound(rp.curTime)
	}
	rp.rounds++
}

// finish closes the final round, if any.
func (rp *roundPlayer) finish() {
	if rp.curTime >= 0 {
		rp.endRound()
	}
}
