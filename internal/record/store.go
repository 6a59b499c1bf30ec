// The tsdb-backed campaign store. The gzip-JSONL format (record.go) is
// one flat file; the tsdb store is a directory managed by internal/tsdb:
// crash-safe (WAL), compressed (columnar chunks), and range-queryable, so
// cmd/analyze can read one evening of a four-week campaign without
// decompressing the rest. Both stores hold the same rows; Convert maps
// between them losslessly (car path vectors are dropped by both).
//
// Path-based helpers (ReadHeaderPath, ReplayPath, ReplayPathRange)
// dispatch on the store kind so callers never branch on the format.

package record

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// CampaignWriter is the write side of a campaign store (*Writer, over
// either back end), which cmd/measure attaches as a campaign sink via
// -store.
type CampaignWriter interface {
	client.Sink
	client.GapSink
	Close() error
	Written() (rows, gaps int64)
}

// StoreKinds lists the values Create accepts.
const (
	StoreJSONL = "jsonl"
	StoreTSDB  = "tsdb"
)

// Create opens a campaign store of the given kind at path. metrics may be
// nil; the tsdb store reports compression/fsync/compaction metrics to it.
func Create(kind, path string, hdr Header, metrics *obs.Registry) (CampaignWriter, error) {
	switch kind {
	case StoreJSONL, "":
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		w, err := newJSONLWriter(f, f, hdr)
		if err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	case StoreTSDB:
		return CreateTSDB(path, hdr, metrics)
	default:
		return nil, fmt.Errorf("record: unknown store kind %q (want %s or %s)", kind, StoreJSONL, StoreTSDB)
	}
}

// CreateTSDB creates (or reopens) a tsdb campaign store at dir: one Commit
// (one WAL fsync) per ping round. The campaign header is stored in the
// tsdb metadata; reopening an existing store resumes it (rows recovered
// from the WAL are counted as written).
func CreateTSDB(dir string, hdr Header, metrics *obs.Registry) (*Writer, error) {
	db, err := openStore(dir, &hdr, metrics)
	if err != nil {
		return nil, err
	}
	return &Writer{store: db, Rows: int64(db.Recovered())}, nil
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

// headerFromStore decodes the campaign header a tsdb store carries.
func headerFromStore(db *tsdb.DB) (Header, error) {
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

// ReadHeaderPath reads just the campaign header of either store kind,
// without touching the observation data.
func ReadHeaderPath(path string) (Header, error) {
	if tsdb.IsStore(path) {
		db, err := tsdb.Open(path, tsdb.Options{ReadOnly: true})
		if err != nil {
			return Header{}, err
		}
		defer db.Close()
		return headerFromStore(db)
	}
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return ReadHeader(f)
}

// ReplayPath replays either store kind into sinks. See Replay for the
// round-reconstruction and ErrTruncated semantics.
func ReplayPath(path string, sinks ...client.Sink) (Header, int64, error) {
	return ReplayPathRange(path, MinTime, MaxTime, sinks...)
}

// ReplayPathRange replays rows with from ≤ time < to. On a tsdb store
// this reads only the chunks overlapping the window; on a gzip recording
// it streams the whole file and filters.
func ReplayPathRange(path string, from, to int64, sinks ...client.Sink) (Header, int64, error) {
	if tsdb.IsStore(path) {
		return replayTSDBRange(path, from, to, sinks...)
	}
	f, err := os.Open(path)
	if err != nil {
		return Header{}, 0, err
	}
	defer f.Close()
	return ReplayRange(f, from, to, sinks...)
}

func replayTSDBRange(dir string, from, to int64, sinks ...client.Sink) (Header, int64, error) {
	db, err := tsdb.Open(dir, tsdb.Options{ReadOnly: true})
	if err != nil {
		return Header{}, 0, err
	}
	defer db.Close()
	hdr, err := headerFromStore(db)
	if err != nil {
		return hdr, 0, err
	}
	rp := newRoundPlayer(hdr, sinks)
	it := db.QueryAll(from, to)
	for it.Next() {
		if err := rp.play(it.Row()); err != nil {
			return hdr, rp.rounds, err
		}
	}
	if err := it.Err(); err != nil {
		rp.finish()
		// Damaged chunks behave like a truncated tail: partial data plus a
		// sentinel the caller can tolerate.
		return hdr, rp.rounds, fmt.Errorf("record: %v: %w", err, ErrTruncated)
	}
	rp.finish()
	return hdr, rp.rounds, nil
}

// StoreBounds reports the [min, max] observation time range a tsdb store
// holds. ok is false (with nil error) for an empty store or a gzip
// recording, whose extent is only known after a full replay.
func StoreBounds(path string) (minT, maxT int64, ok bool, err error) {
	if !tsdb.IsStore(path) {
		return 0, 0, false, nil
	}
	db, err := tsdb.Open(path, tsdb.Options{ReadOnly: true})
	if err != nil {
		return 0, 0, false, err
	}
	defer db.Close()
	minT, maxT, ok = db.Bounds()
	return minT, maxT, ok, nil
}

// Convert copies a campaign between store kinds, direction inferred from
// the input (tsdb directory → gzip file, gzip file → tsdb directory).
// It returns the header and the number of rows copied.
func Convert(in, out string, metrics *obs.Registry) (Header, int64, error) {
	hdr, err := ReadHeaderPath(in)
	if err != nil {
		return hdr, 0, err
	}
	kind := StoreTSDB
	if tsdb.IsStore(in) {
		kind = StoreJSONL
	}
	w, err := Create(kind, out, hdr, metrics)
	if err != nil {
		return hdr, 0, err
	}
	if _, _, err := ReplayPath(in, w); err != nil {
		w.Close()
		return hdr, 0, err
	}
	if err := w.Close(); err != nil {
		return hdr, 0, err
	}
	rows, _ := w.Written()
	return hdr, rows, nil
}
