// Verify is the integrity walk behind `tsdbtool verify`: every sealed
// segment's whole-file CRC is recomputed (a single flipped byte anywhere
// fails it), every chunk is CRC-checked and decoded, invariants (row
// counts, time bounds, per-series ordering) are re-derived rather than
// trusted, and the WAL is scanned to report how many rows a reopen would
// recover. Verify never mutates the store.

package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// SegmentReport describes one verified segment.
type SegmentReport struct {
	Path       string
	Bytes      int64
	Rows       uint64
	Chunks     int
	MinT, MaxT int64
}

// Report is the result of a successful Verify.
type Report struct {
	Segments []SegmentReport
	Rows     uint64 // total sealed rows
	WALRows  int    // rows a reopen would recover from the WAL
	WALTorn  bool   // the WAL had a truncated/corrupt tail (dropped)
	WALStale bool   // the WAL's head was already sealed; it will be discarded
}

// Verify checks the store at dir without opening it for writing.
func Verify(dir string) (Report, error) {
	var rep Report
	if !IsStore(dir) {
		return rep, fmt.Errorf("tsdb: %s: not a store (no META.json)", dir)
	}
	files, err := listSegFiles(filepath.Join(dir, "seg"), true)
	if err != nil {
		return rep, err
	}
	var maxSealed uint64
	for _, f := range files {
		sr, err := openSegment(f.path, f.lo, f.hi)
		if err != nil {
			return rep, err
		}
		segRep, err := verifySegment(sr)
		sr.close()
		if err != nil {
			return rep, err
		}
		rep.Segments = append(rep.Segments, segRep)
		rep.Rows += segRep.Rows
		if f.hi > maxSealed {
			maxSealed = f.hi
		}
	}
	res, err := scanWAL(filepath.Join(dir, "wal", "head.wal"))
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return rep, err
	case res.seq <= maxSealed && maxSealed > 0:
		rep.WALStale = true
	default:
		rep.WALRows = len(res.rows)
		rep.WALTorn = res.torn
	}
	return rep, nil
}

func verifySegment(sr *segmentReader) (SegmentReport, error) {
	rep := SegmentReport{Path: sr.path, Bytes: sr.size, MinT: sr.minT, MaxT: sr.maxT}
	if err := sr.verifyFileCRC(); err != nil {
		return rep, err
	}
	var d chunkDecoder
	for _, s := range sr.series {
		last := int64(math.MinInt64)
		for _, e := range sr.bySeries[s] {
			if err := sr.chunk(&d, e); err != nil { // CRC + decode + count check
				return rep, err
			}
			for _, t := range d.times[:d.n] {
				if t < e.minT || t > e.maxT {
					return rep, fmt.Errorf("tsdb: %s: row outside chunk bounds: %w", sr.path, ErrCorrupt)
				}
				if t < last {
					return rep, fmt.Errorf("tsdb: %s: series %d out of order: %w", sr.path, s, ErrCorrupt)
				}
				last = t
			}
			rep.Rows += uint64(d.n)
			rep.Chunks++
		}
	}
	return rep, nil
}

// ChunkSections names the sections of a chunk payload in order: the
// dictionary, then the ten columns.
var ChunkSections = [...]string{
	"dictionary", "times", "meta", "typeIDs", "surges", "EWTs",
	"carCounts", "carIDs", "lats", "lngs", "reasons",
}

// ColumnStats is what the sealed chunks' payloads spend, by section.
type ColumnStats struct {
	Chunks   int
	Rows     uint64
	Sections [len(ChunkSections)]int64 // bytes, in ChunkSections order
	// Headers is each chunk's row count and column length prefixes: the
	// payload bytes no section holds.
	Headers int64
}

// Columns reads every sealed chunk, CRC-checked and decoded, and sums its
// payload by section.
func (db *DB) Columns() (ColumnStats, error) {
	db.mu.Lock()
	segs := append([]*segmentReader(nil), db.segs...)
	db.mu.Unlock()
	var (
		st ColumnStats
		d  chunkDecoder
	)
	for _, sr := range segs {
		for _, s := range sr.series {
			for _, e := range sr.bySeries[s] {
				if err := sr.chunk(&d, e); err != nil {
					return st, err
				}
				if err := st.add(d.read[:e.length]); err != nil {
					return st, err
				}
				st.Chunks++
				st.Rows += e.rows
			}
		}
	}
	return st, nil
}

// add sums one decoded chunk's payload by section.
func (st *ColumnStats) add(payload []byte) error {
	r := wire.NewReader(payload)
	prefix := func() int {
		before := r.Remaining()
		n := r.Uvarint()
		st.Headers += int64(before - r.Remaining())
		return int(n)
	}
	prefix() // the row count
	before := r.Remaining()
	if _, err := dictDecodeTo(nil, r); err != nil {
		return err
	}
	st.Sections[0] += int64(before - r.Remaining())
	for i := 1; i < len(st.Sections); i++ {
		n := prefix()
		r.Take(n)
		st.Sections[i] += int64(n)
	}
	return nil
}
