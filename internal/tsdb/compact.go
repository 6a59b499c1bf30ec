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
)

// Compact merges all sealed segments into one. An Append whose seal makes
// compactMinSegments segments compacts too.
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
	lo := db.segs[0].lo
	hi := db.segs[len(db.segs)-1].hi
	path := filepath.Join(db.segDir(), segFileName(lo, hi))
	// Series ascending; per series the segments are already in time order
	// (seal order + the monotonic append invariant). A series only the
	// head holds has no chunks to copy. Rows are re-chunked every
	// defaultChunkRows rows of a series, as the head cuts them, so a
	// series' partial chunk at the end of one segment fills up from the
	// next.
	err := writeSegment(path, func(sw *segmentWriter) error {
		var (
			d    chunkDecoder
			row  rowBuf
			cols chunkCols
			enc  chunkEncoder
		)
		cut := func(s int) error {
			n := cols.rows()
			if n == 0 {
				return nil
			}
			err := sw.addChunk(s, enc.payload(&cols), cols.times[0], cols.times[n-1], n)
			cols.reset()
			return err
		}
		for _, s := range db.seriesLocked() {
			for _, sr := range db.segs {
				for _, e := range sr.bySeries[s] {
					if err := sr.chunk(&d, e); err != nil {
						return err
					}
					for k := 0; k < d.n; k++ {
						cols.add(row.build(&d.decodedCols, k))
						if cols.rows() == defaultChunkRows {
							if err := cut(s); err != nil {
								return err
							}
						}
					}
				}
			}
			if err := cut(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
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
	return nil
}
