// Package tsdb is an embedded append-only time-series store purpose-built
// for measurement campaigns: the paper's workflow is "collect hundreds of
// gigabytes of pingClient responses for four weeks, analyze offline", and
// at that scale storage footprint, crash safety, and query speed dominate.
//
// A DB is a directory:
//
//	META.json   version + opaque application header (the campaign header)
//	wal/        fsync-batched write-ahead log guarding the in-memory head
//	seg/        sealed immutable segments: per-series columnar chunks
//	            (delta-of-delta timestamps, Gorilla XOR floats, dictionary
//	            car ids), a sparse time index, and CRC32 footers
//
// Writes append to the WAL and an in-memory head, which keeps every full
// chunk of a series encoded; every Commit fsyncs the WAL, so committed rows
// survive a crash: opening a crashed DB replays the WAL. When the head
// reaches HeadMaxRows, the Append that fills it seals it into a segment and
// rotates the WAL; once that seal makes compactMinSegments segments, the
// same Append merges them into one. Query(series, from, to) walks only the
// chunks overlapping the window.
package tsdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// FormatVersion is the on-disk format version recorded in META.json.
const FormatVersion = 1

// ErrOutOfOrder is returned by Append when a row's timestamp precedes the
// series' last appended timestamp (campaign time is monotonic).
var ErrOutOfOrder = errors.New("tsdb: append out of time order")

// ErrReadOnly is returned by mutating operations on a read-only DB.
var ErrReadOnly = errors.New("tsdb: database is read-only")

// compactMinSegments is the segment count at which an Append's seal
// compacts the store.
const compactMinSegments = 8

// Options configures Open. The zero value is a writable DB with defaults.
type Options struct {
	// ReadOnly opens without creating or mutating anything on disk (no WAL
	// truncation, no sealing); used by verification and offline analysis.
	ReadOnly bool
	// Extra is an opaque application blob stored in META.json on first
	// creation (the campaign recording header).
	Extra json.RawMessage
	// HeadMaxRows seals the head into a segment when it reaches this many
	// rows. Default 65536 (≈ 1,524 campaign rounds of 43 clients, one row
	// per client per round).
	HeadMaxRows int
	// Metrics receives tsdb_compaction_errors_total; nil disables (obs
	// handles are nil-safe).
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.HeadMaxRows == 0 {
		o.HeadMaxRows = 65536
	}
}

// Meta is the content of META.json.
type Meta struct {
	Version int             `json:"version"`
	Extra   json.RawMessage `json:"extra,omitempty"`
}

// DB is one open store. All methods are safe for concurrent use.
type DB struct {
	dir  string
	opts Options
	// compactErrs counts auto-compactions that failed in Append.
	compactErrs *obs.Counter

	mu        sync.Mutex
	meta      Meta
	segs      []*segmentReader // sorted by lo, non-overlapping
	graveyard []*segmentReader // replaced/retired files kept open for live iterators
	wal       *walWriter
	head      map[int]*headSeries
	spare     []*headSeries // emptied by the last seal, for the next period's series
	enc       chunkEncoder  // encodes the head's open columns: cuts, seals, queries
	headRows  int
	lastTime  map[int]int64
	recovered int
	closed    bool
}

// headSeries is one series' rows in the head: its full chunks, encoded
// exactly as the seal writes them, and the rows since the last cut as the
// columns of the next chunk. The head owns that memory: a cut resets the
// columns and the next rows reuse their buffers.
type headSeries struct {
	chunks []headChunk
	open   chunkCols // fewer than defaultChunkRows rows
}

// headChunk is the payload of defaultChunkRows rows and their time range.
type headChunk struct {
	payload    []byte
	minT, maxT int64
}

// bounds returns the series' first and last head timestamps. A series is
// in the head only once it has a row.
func (hs *headSeries) bounds() (minT, maxT int64) {
	if len(hs.chunks) > 0 {
		minT, maxT = hs.chunks[0].minT, hs.chunks[len(hs.chunks)-1].maxT
	} else {
		minT = hs.open.times[0]
	}
	if n := hs.open.rows(); n > 0 {
		maxT = hs.open.times[n-1]
	}
	return minT, maxT
}

// appendHead adds row to its series' open columns, cutting them into an
// encoded chunk once they hold a full one. Nothing of row is kept but its
// strings.
func (db *DB) appendHead(row *Row) {
	hs := db.head[row.Series]
	if hs == nil {
		if n := len(db.spare); n > 0 {
			hs, db.spare = db.spare[n-1], db.spare[:n-1]
		} else {
			hs = new(headSeries)
		}
		db.head[row.Series] = hs
	}
	if cap(hs.open.times) == 0 {
		// The columns fill to a whole chunk, and are kept for the next.
		hs.open.reserve(defaultChunkRows, row)
	}
	hs.open.add(row)
	if hs.open.rows() < defaultChunkRows {
		return
	}
	hs.chunks = append(hs.chunks, headChunk{
		payload: bytes.Clone(db.enc.payload(&hs.open)),
		minT:    hs.open.times[0],
		maxT:    row.Time,
	})
	hs.open.reset()
}

// resetHead empties the head after a seal. Its series go onto the spare
// list with their column buffers, which the next seal period fills again.
func (db *DB) resetHead() {
	for s, hs := range db.head {
		clear(hs.chunks)
		hs.chunks = hs.chunks[:0]
		hs.open.reset()
		db.spare = append(db.spare, hs)
		delete(db.head, s)
	}
	db.headRows = 0
}

func (db *DB) segDir() string  { return filepath.Join(db.dir, "seg") }
func (db *DB) walPath() string { return filepath.Join(db.dir, "wal", "head.wal") }

// IsStore reports whether dir looks like a tsdb store (has a META.json).
func IsStore(dir string) bool {
	st, err := os.Stat(dir)
	if err != nil || !st.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(dir, "META.json"))
	return err == nil
}

// Open opens (creating if needed, unless read-only) the store at dir and
// replays any write-ahead log left by a crash.
func Open(dir string, opts Options) (*DB, error) {
	opts.defaults()
	db := &DB{
		dir:         dir,
		opts:        opts,
		compactErrs: opts.Metrics.Counter("tsdb_compaction_errors_total"),
		head:        make(map[int]*headSeries),
		lastTime:    make(map[int]int64),
	}
	if !opts.ReadOnly {
		for _, d := range []string{dir, db.segDir(), filepath.Join(dir, "wal")} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
	}
	if err := db.loadMeta(); err != nil {
		return nil, err
	}
	if err := db.loadSegments(); err != nil {
		db.closeAll()
		return nil, err
	}
	if err := db.recoverWAL(); err != nil {
		db.closeAll()
		return nil, err
	}
	return db, nil
}

func (db *DB) loadMeta() error {
	path := filepath.Join(db.dir, "META.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if db.opts.ReadOnly {
			return fmt.Errorf("tsdb: %s: not a store (no META.json)", db.dir)
		}
		return db.writeMeta(Meta{Version: FormatVersion, Extra: db.opts.Extra})
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &db.meta); err != nil {
		return fmt.Errorf("tsdb: %s: META.json: %w", db.dir, err)
	}
	if db.meta.Version != FormatVersion {
		return fmt.Errorf("tsdb: %s: unsupported format version %d", db.dir, db.meta.Version)
	}
	return nil
}

// writeMeta atomically replaces META.json with meta and, once it is on
// disk, adopts it as db.meta.
func (db *DB) writeMeta(meta Meta) error {
	blob, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := wire.WriteFileAtomic(filepath.Join(db.dir, "META.json"), blob); err != nil {
		return err
	}
	db.meta = meta
	return nil
}

// listSegFiles returns the live segment files in dir sorted by lo, after
// dropping files whose seal range another file covers (compaction inputs a
// crash left behind). Covered files are deleted unless readOnly.
func listSegFiles(segDir string, readOnly bool) ([]segFile, error) {
	ents, err := os.ReadDir(segDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []segFile
	for _, e := range ents {
		if lo, hi, ok := parseSegName(e.Name()); ok {
			files = append(files, segFile{filepath.Join(segDir, e.Name()), lo, hi})
		}
	}
	live := files[:0]
	for _, f := range files {
		covered := false
		for _, g := range files {
			if g.path != f.path && g.lo <= f.lo && f.hi <= g.hi && (g.hi-g.lo) > (f.hi-f.lo) {
				covered = true
				break
			}
		}
		if covered {
			if !readOnly {
				os.Remove(f.path)
			}
			continue
		}
		live = append(live, f)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].lo < live[j].lo })
	for i := 1; i < len(live); i++ {
		if live[i].lo <= live[i-1].hi {
			return nil, fmt.Errorf("tsdb: overlapping segments %s and %s: %w",
				live[i-1].path, live[i].path, ErrCorrupt)
		}
	}
	return live, nil
}

type segFile struct {
	path   string
	lo, hi uint64
}

func (db *DB) loadSegments() error {
	files, err := listSegFiles(db.segDir(), db.opts.ReadOnly)
	if err != nil {
		return err
	}
	for _, f := range files {
		sr, err := openSegment(f.path, f.lo, f.hi)
		if err != nil {
			return err
		}
		db.segs = append(db.segs, sr)
	}
	return nil
}

func (db *DB) maxSealedSeq() uint64 {
	if len(db.segs) == 0 {
		return 0
	}
	return db.segs[len(db.segs)-1].hi
}

// noteTime records a series' newest stored timestamp for the monotonic
// append check (t=0 is a valid campaign time, hence the presence map).
func (db *DB) noteTime(series int, t int64) {
	if last, ok := db.lastTime[series]; !ok || t > last {
		db.lastTime[series] = t
	}
}

func (db *DB) recoverWAL() error {
	for _, sr := range db.segs {
		for s, entries := range sr.bySeries {
			db.noteTime(s, entries[len(entries)-1].maxT)
		}
	}
	nextSeq := db.maxSealedSeq() + 1
	res, err := scanWAL(db.walPath())
	switch {
	case errors.Is(err, os.ErrNotExist):
		res = nil
	case err != nil:
		// A torn header means the crash happened during WAL creation,
		// before any record could have been acknowledged: start fresh.
		res = nil
	case res.seq <= db.maxSealedSeq():
		// Stale WAL: its head was already sealed durably, the crash hit
		// between segment rename and WAL rotation. Discard, no replay.
		res = nil
	}
	if res != nil {
		for i := range res.rows {
			db.appendHead(&res.rows[i])
			db.noteTime(res.rows[i].Series, res.rows[i].Time)
		}
		db.headRows = len(res.rows)
		db.recovered = len(res.rows)
		if res.seq >= nextSeq {
			nextSeq = res.seq
		}
	}
	if db.opts.ReadOnly {
		return nil
	}
	if res != nil {
		w, err := resumeWAL(db.walPath(), res)
		if err != nil {
			return err
		}
		db.wal = w
		return nil
	}
	w, err := createWAL(db.walPath(), nextSeq)
	if err != nil {
		return err
	}
	db.wal = w
	return nil
}

// Extra returns the application blob stored at creation.
func (db *DB) Extra() json.RawMessage { return db.meta.Extra }

// SetExtra atomically replaces the application blob in META.json. The
// live ingester uses it to grow the campaign header as new clients
// appear on the bus.
func (db *DB) SetExtra(extra json.RawMessage) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("tsdb: database closed")
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	meta := db.meta
	meta.Extra = extra
	return db.writeMeta(meta)
}

// SeriesLastTime returns the newest timestamp stored for a series (over
// sealed segments, recovered WAL rows, and the live head), or ok=false
// if the series has no rows. An at-least-once consumer uses it to skip
// redelivered rows.
func (db *DB) SeriesLastTime(series int) (int64, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.lastTime[series]
	return t, ok
}

// Recovered returns how many rows were replayed from the WAL at Open — the
// rows a crash would otherwise have lost.
func (db *DB) Recovered() int { return db.recovered }

// Append stores one row. Rows of a series must arrive in non-decreasing
// time order. The row is durable after the next Commit (or seal). The row
// is borrowed: Append keeps nothing of it but its strings, so the caller
// may reuse its Types and Cars as soon as Append returns.
//
// The row that fills the head seals it; if that seal makes
// compactMinSegments segments, Append also compacts them. A failed
// compaction is counted (tsdb_compaction_errors_total), not returned: the
// seal is durable, the inputs stay, and the next seal tries again.
func (db *DB) Append(row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("tsdb: database closed")
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	if last, ok := db.lastTime[row.Series]; ok && row.Time < last {
		return fmt.Errorf("%w: series %d: %d < %d", ErrOutOfOrder, row.Series, row.Time, last)
	}
	if err := db.wal.append(&row); err != nil {
		return err
	}
	db.appendHead(&row)
	db.lastTime[row.Series] = row.Time
	db.headRows++
	if db.headRows < db.opts.HeadMaxRows {
		return nil
	}
	if err := db.sealLocked(); err != nil {
		return err
	}
	if len(db.segs) >= compactMinSegments {
		if err := db.compactLocked(); err != nil {
			db.compactErrs.Inc()
		}
	}
	return nil
}

// Commit marks a batch boundary (the campaign calls it once per ping
// round): the WAL is flushed and fsynced, making everything appended so
// far crash-durable.
func (db *DB) Commit() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.opts.ReadOnly {
		return ErrReadOnly
	}
	return db.wal.sync()
}

// Seal flushes the in-memory head into a sealed segment. Unlike a seal in
// Append, it never compacts.
func (db *DB) Seal() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed || db.opts.ReadOnly {
		return ErrReadOnly
	}
	return db.sealLocked()
}

func (db *DB) sealLocked() error {
	if db.headRows == 0 {
		return nil
	}
	seq := db.wal.seq
	path := filepath.Join(db.segDir(), segFileName(seq, seq))
	// The encoded chunks are copied; only each series' open columns are
	// encoded here. Cuts fall every defaultChunkRows rows of a series from
	// the head's start, as compaction cuts a series' rows.
	err := writeSegment(path, func(sw *segmentWriter) error {
		for _, s := range db.seriesLocked() {
			hs := db.head[s]
			if hs == nil {
				continue
			}
			for _, c := range hs.chunks {
				if err := sw.addChunk(s, c.payload, c.minT, c.maxT, defaultChunkRows); err != nil {
					return err
				}
			}
			if n := hs.open.rows(); n > 0 {
				if err := sw.addChunk(s, db.enc.payload(&hs.open), hs.open.times[0], hs.open.times[n-1], n); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sr, err := openSegment(path, seq, seq)
	if err != nil {
		return err
	}
	db.segs = append(db.segs, sr)
	// The segment is durable; rotate the WAL.
	db.wal.close()
	w, err := createWAL(db.walPath(), seq+1)
	if err != nil {
		return err
	}
	db.wal = w
	db.resetHead()
	return nil
}

func (db *DB) boundsLocked() (minT, maxT int64, ok bool) {
	minT, maxT = int64(1)<<62, -(int64(1) << 62)
	for _, sr := range db.segs {
		if sr.minT < minT {
			minT = sr.minT
		}
		if sr.maxT > maxT {
			maxT = sr.maxT
		}
		ok = true
	}
	for _, hs := range db.head {
		lo, hi := hs.bounds()
		minT, maxT, ok = min(minT, lo), max(maxT, hi), true
	}
	return minT, maxT, ok
}

// Bounds returns the time range currently stored ([min, max], inclusive);
// ok is false for an empty store.
func (db *DB) Bounds() (minT, maxT int64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.boundsLocked()
}

// Series returns the stored series ids, ascending.
func (db *DB) Series() []int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seriesLocked()
}

// seriesLocked is the union of the sealed segments' series and the
// head's, ascending.
func (db *DB) seriesLocked() []int {
	set := make(map[int]bool)
	for _, sr := range db.segs {
		for _, s := range sr.series {
			set[s] = true
		}
	}
	for s := range db.head {
		set[s] = true
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Stats summarizes the store.
type Stats struct {
	Segments     int
	SegmentBytes int64
	SegmentRows  int64
	HeadRows     int
	WALBytes     int64
	Recovered    int
	MinTime      int64
	MaxTime      int64
	HasData      bool
}

// Stats returns a point-in-time summary.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	st := Stats{Segments: len(db.segs), HeadRows: db.headRows, Recovered: db.recovered}
	for _, sr := range db.segs {
		st.SegmentBytes += sr.size
		st.SegmentRows += int64(sr.rows)
	}
	if db.wal != nil {
		st.WALBytes = int64(db.wal.bytes)
	}
	st.MinTime, st.MaxTime, st.HasData = db.boundsLocked()
	return st
}

func (db *DB) closeAll() {
	for _, sr := range db.segs {
		sr.close()
	}
	for _, sr := range db.graveyard {
		sr.close()
	}
	db.segs, db.graveyard = nil, nil
	if db.wal != nil {
		db.wal.close()
		db.wal = nil
	}
}

// Close seals any buffered head rows (so a cleanly closed store recovers
// nothing from the WAL) and releases all file handles. It never compacts.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	var err error
	if !db.opts.ReadOnly {
		err = db.sealLocked()
	}
	db.closeAll()
	db.closed = true
	// The sealed head's storage would otherwise outlive the store.
	db.head, db.spare = nil, nil
	return err
}
