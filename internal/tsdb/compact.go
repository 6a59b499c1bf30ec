// Compaction and its crash-safety story.
//
// Compact streams every sealed segment into one merged file named for the
// full seal-sequence range it covers (e.g. 00000001-00000007.seg), syncs
// and renames it, then deletes the inputs. A crash at any point is safe:
// before the rename the tmp file is ignored on open; after it, any input
// whose range the merged file covers is detected as replaced and removed.
// Input file handles stay open (in the graveyard) until the DB closes so
// concurrent iterators keep reading the data they snapshotted.

package tsdb

import (
	"os"
	"path/filepath"
	"time"
)

// Compact merges all sealed segments into one. It is also triggered in
// the background when the segment count reaches CompactMinSegments.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	return db.compactLocked()
}

func (db *DB) compactLocked() error {
	if len(db.segs) < 2 {
		return nil
	}
	t0 := time.Now()
	lo := db.segs[0].lo
	hi := db.segs[len(db.segs)-1].hi
	path := filepath.Join(db.segDir(), segFileName(lo, hi))
	sw, err := newSegmentWriter(path)
	if err != nil {
		return err
	}
	// Series ascending; per series the segments are already in time order
	// (seal order + the monotonic append invariant). A series only the
	// head holds has no chunks to copy. Rows are re-chunked, so a series'
	// partial chunk at the end of one segment fills up from the next.
	var d chunkDecoder
	for _, s := range db.seriesLocked() {
		for _, sr := range db.segs {
			for _, e := range sr.bySeries[s] {
				if err := sr.chunk(&d, e); err != nil {
					return err
				}
				if err := sw.add(s, d.rows(0, d.n)); err != nil {
					return err
				}
			}
		}
	}
	if err := sw.finish(); err != nil {
		return err
	}
	merged, err := openSegment(path, lo, hi)
	if err != nil {
		return err
	}
	for _, sr := range db.segs {
		os.Remove(sr.path)
		db.graveyard = append(db.graveyard, sr)
	}
	db.segs = []*segmentReader{merged}
	db.m.compactDur.ObserveDuration(time.Since(t0))
	db.updateGauges()
	return nil
}
