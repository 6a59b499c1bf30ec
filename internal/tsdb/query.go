// Range queries. QueryAll merges every series by time (ties broken by
// series id), which is how a campaign replay reconstructs ping rounds;
// Query is the same merge over one series. Both decode lazily, chunk by
// chunk, touching only chunks whose [minT, maxT] intersects the window —
// the point of the sparse index: a one-hour window of a four-week campaign
// reads a few chunks, not the whole file. One Iterator decodes every
// chunk it reads with one chunkDecoder; each series copies the rows of
// its chunk that lie inside the window out of it, into columns the series
// keeps from chunk to chunk, and Next builds one row at a time from them
// into the Iterator's one row, which it lends until the next call. The
// merge runs on the caller's goroutine.

package tsdb

import (
	"bytes"
	"container/heap"
	"math"
)

// chunkRef is one lazily decoded batch: a sealed chunk, or the payload of
// a head chunk or of a head series' open rows.
type chunkRef struct {
	sr      *segmentReader // sealed: the file and the chunk's index entry
	entry   chunkEntry
	payload []byte // head
	minT    int64  // the chunk's first timestamp
}

// seriesIter walks one series' rows within [from, to) in time order: row
// idx of win, the window of the chunk it decoded last.
type seriesIter struct {
	dec      *chunkDecoder // the Iterator's, shared by all its series
	series   int
	refs     []chunkRef
	from, to int64
	win      decodedCols
	idx      int
	err      error // why the series' next chunk failed to load,
	errT     int64 // and that chunk's first timestamp
}

// time is the timestamp of the series' current row.
func (s *seriesIter) time() int64 { return s.win.times[s.idx] }

// next moves to the series' next row, decoding chunks until one has rows
// in the window, and reports false when there are none or a chunk fails.
func (s *seriesIter) next() bool {
	s.idx++
	for s.idx >= len(s.win.times) {
		if len(s.refs) == 0 {
			return false
		}
		ref := s.refs[0]
		s.refs = s.refs[1:]
		var err error
		if ref.sr != nil {
			err = ref.sr.chunk(s.dec, ref.entry)
		} else {
			err = s.dec.decode(ref.payload, s.series)
		}
		if err != nil {
			s.err, s.errT = err, ref.minT
			return false
		}
		s.dec.window(&s.win, s.from, s.to)
		s.idx = 0
	}
	return true
}

// Iterator walks query results. Typical use:
//
//	it := db.Query(3, from, to)
//	for it.Next() {
//		row := it.Row()
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	srcs []seriesIter
	h    mergeHeap // the series with rows left
	dec  chunkDecoder
	buf  rowBuf
	row  *Row
	err  error
	stop int64 // no row at or after it is lent: the damaged chunk's minT
}

// Next advances to the next row, reporting false at the end of the window
// or, once every row before a damaged chunk's first timestamp is lent, on
// error.
func (it *Iterator) Next() bool {
	it.row = nil
	if len(it.h) == 0 || it.h[0].time() >= it.stop {
		return false
	}
	// The row is built before its series moves on: that may decode the
	// series' next chunk over its window.
	s := it.h[0]
	it.row = it.buf.build(&s.win, s.idx)
	if s.next() {
		heap.Fix(&it.h, 0)
	} else {
		heap.Pop(&it.h)
		it.fail(s)
	}
	return true
}

// Row returns the current row. It is lent: the row, its Types and their
// Cars are valid until the next call to Next, which builds the next row
// in the same memory, and must not be modified. A caller that keeps a row
// copies it.
func (it *Iterator) Row() *Row { return it.row }

// Err returns the error of the damaged chunk that ended the iteration, if
// any.
func (it *Iterator) Err() error { return it.err }

// fail notes a series whose chunk failed to load: no row at or after that
// chunk's first timestamp is lent, so every round before it stays whole.
func (it *Iterator) fail(s *seriesIter) {
	if s.err != nil && s.errT < it.stop {
		it.err, it.stop = s.err, s.errT
	}
}

// refsLocked snapshots the chunk refs of one series under db.mu and
// returns the longest sealed chunk's size on disk. Decoding happens
// outside the lock.
func (db *DB) refsLocked(s *seriesIter, from, to int64) (read int) {
	for _, sr := range db.segs {
		for _, e := range sr.overlapping(s.series, from, to) {
			s.refs = append(s.refs, chunkRef{sr: sr, entry: e, minT: e.minT})
			read = max(read, int(e.length+4))
		}
	}
	if hs := db.head[s.series]; hs != nil {
		// Encoded chunks are immutable. The open columns are reused after
		// the next cut, so the iterator gets their payload.
		for _, c := range hs.chunks {
			if c.maxT >= from && c.minT < to {
				s.refs = append(s.refs, chunkRef{payload: c.payload, minT: c.minT})
			}
		}
		if n := hs.open.rows(); n > 0 && hs.open.times[n-1] >= from && hs.open.times[0] < to {
			s.refs = append(s.refs, chunkRef{payload: bytes.Clone(db.enc.payload(&hs.open)), minT: hs.open.times[0]})
		}
	}
	return read
}

// Query returns an iterator over one series' rows with from ≤ Time < to.
func (db *DB) Query(series int, from, to int64) *Iterator { return db.query(from, to, series) }

// QueryAll returns an iterator over every series' rows with
// from ≤ Time < to, merged in (time, series) order.
func (db *DB) QueryAll(from, to int64) *Iterator { return db.query(from, to) }

// query merges the named series, or every stored one when none is named.
// The read buffer is sized once, for the longest chunk the query reads.
func (db *DB) query(from, to int64, series ...int) *Iterator {
	db.mu.Lock()
	if series == nil {
		series = db.seriesLocked()
	}
	it := &Iterator{srcs: make([]seriesIter, len(series)), h: make(mergeHeap, 0, len(series)), stop: math.MaxInt64}
	read := 0
	for i, id := range series {
		s := &it.srcs[i]
		*s = seriesIter{dec: &it.dec, series: id, from: from, to: to, idx: -1}
		read = max(read, db.refsLocked(s, from, to))
	}
	db.mu.Unlock()
	it.dec.read = make([]byte, read)
	for i := range it.srcs {
		if s := &it.srcs[i]; s.next() {
			it.h = append(it.h, s)
		} else {
			it.fail(s)
		}
	}
	heap.Init(&it.h)
	return it
}

// mergeHeap orders series by their current row's (time, series).
type mergeHeap []*seriesIter

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if ti, tj := h[i].time(), h[j].time(); ti != tj {
		return ti < tj
	}
	return h[i].series < h[j].series
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(*seriesIter)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
