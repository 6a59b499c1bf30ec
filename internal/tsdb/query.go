// Range queries. QueryAll merges every series by time (ties broken by
// series id), which is how a campaign replay reconstructs ping rounds;
// Query is the same merge over one series. Both decode lazily, chunk by
// chunk, touching only chunks whose [minT, maxT] intersects the window —
// the point of the sparse index: a one-hour window of a four-week campaign
// reads a few chunks, not the whole file — and build only the rows inside
// the window. One Iterator decodes every chunk it reads with one
// chunkDecoder; the merge runs on the caller's goroutine.

package tsdb

import (
	"bytes"
	"container/heap"
)

// chunkRef is one lazily decoded batch: a sealed chunk, or the payload of
// a head chunk or of a head series' open rows.
type chunkRef struct {
	sr      *segmentReader // sealed: the file and the chunk's index entry
	entry   chunkEntry
	payload []byte // head
}

// seriesIter yields one series' rows within [from, to) in time order.
type seriesIter struct {
	dec      *chunkDecoder // the Iterator's, shared by all its series
	series   int
	refs     []chunkRef
	from, to int64
	cur      []Row
	idx      int
	err      error
}

func (it *seriesIter) next() (*Row, bool) {
	for {
		if it.err != nil {
			return nil, false
		}
		if it.idx < len(it.cur) {
			r := &it.cur[it.idx]
			it.idx++
			return r, true
		}
		if len(it.refs) == 0 {
			return nil, false
		}
		ref := it.refs[0]
		it.refs = it.refs[1:]
		it.idx = 0
		if ref.sr != nil {
			it.err = ref.sr.chunk(it.dec, ref.entry)
		} else {
			it.err = it.dec.decode(ref.payload, it.series)
		}
		if it.err != nil {
			return nil, false
		}
		it.cur = it.dec.window(it.from, it.to)
	}
}

// Iterator walks query results. Typical use:
//
//	it := db.Query(3, from, to)
//	for it.Next() {
//		row := it.Row()
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	m   mergeIter
	dec chunkDecoder
	row *Row
}

// Next advances to the next row, reporting false at the end of the window
// or on error.
func (it *Iterator) Next() bool {
	var ok bool
	it.row, ok = it.m.next()
	return ok
}

// Row returns the current row. Its memory is never reused by the store:
// the row, and its Types and Cars, stay valid after Next for as long as
// the caller holds them, and must not be modified.
func (it *Iterator) Row() *Row { return it.row }

// Err returns the first decoding/IO error encountered, if any.
func (it *Iterator) Err() error { return it.m.failure }

// seriesIterLocked snapshots the chunk refs for one series under db.mu.
// Decoding happens outside the lock, with dec.
func (db *DB) seriesIterLocked(dec *chunkDecoder, series int, from, to int64) *seriesIter {
	it := &seriesIter{dec: dec, series: series, from: from, to: to}
	for _, sr := range db.segs {
		for _, e := range sr.overlapping(series, from, to) {
			it.refs = append(it.refs, chunkRef{sr: sr, entry: e})
		}
	}
	if hs := db.head[series]; hs != nil {
		// Encoded chunks are immutable. The open columns are reused after
		// the next cut, so the iterator gets their payload.
		for _, c := range hs.chunks {
			if c.maxT >= from && c.minT < to {
				it.refs = append(it.refs, chunkRef{payload: c.payload})
			}
		}
		if n := hs.open.rows(); n > 0 && hs.open.times[n-1] >= from && hs.open.times[0] < to {
			it.refs = append(it.refs, chunkRef{payload: bytes.Clone(db.enc.payload(&hs.open))})
		}
	}
	return it
}

// Query returns an iterator over one series' rows with from ≤ Time < to.
func (db *DB) Query(series int, from, to int64) *Iterator { return db.query(from, to, series) }

// QueryAll returns an iterator over every series' rows with
// from ≤ Time < to, merged in (time, series) order.
func (db *DB) QueryAll(from, to int64) *Iterator { return db.query(from, to) }

// query merges the named series, or every stored one when none is named.
func (db *DB) query(from, to int64, series ...int) *Iterator {
	db.mu.Lock()
	if series == nil {
		series = db.seriesLocked()
	}
	it := &Iterator{}
	for _, s := range series {
		it.m.sources = append(it.m.sources, mergeSource{series: s, it: db.seriesIterLocked(&it.dec, s, from, to)})
	}
	db.mu.Unlock()
	it.m.init()
	return it
}

type mergeSource struct {
	series int
	it     *seriesIter
	row    *Row
}

type mergeIter struct {
	sources []mergeSource // pending init
	h       mergeHeap
	failure error
}

func (m *mergeIter) init() {
	for _, src := range m.sources {
		if r, ok := src.it.next(); ok {
			src.row = r
			m.h = append(m.h, src)
		} else if src.it.err != nil && m.failure == nil {
			m.failure = src.it.err
		}
	}
	m.sources = nil
	heap.Init(&m.h)
}

func (m *mergeIter) next() (*Row, bool) {
	if m.failure != nil || len(m.h) == 0 {
		return nil, false
	}
	src := m.h[0]
	row := src.row
	if r, ok := src.it.next(); ok {
		src.row = r
		m.h[0] = src
		heap.Fix(&m.h, 0)
	} else {
		if src.it.err != nil {
			m.failure = src.it.err
			return nil, false
		}
		heap.Pop(&m.h)
	}
	return row, true
}

type mergeHeap []mergeSource

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].row.Time != h[j].row.Time {
		return h[i].row.Time < h[j].row.Time
	}
	return h[i].series < h[j].series
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeSource)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
