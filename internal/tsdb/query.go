// Range queries. QueryAll merges every series by time (ties broken by
// series id), which is how a campaign replay reconstructs ping rounds;
// Query is the same merge over one series. Both decode lazily, chunk by
// chunk, touching only chunks whose [minT, maxT] intersects the window —
// the point of the sparse index: a one-hour window of a four-week campaign
// reads a few chunks, not the whole file.

package tsdb

import (
	"container/heap"
	"sort"
)

// chunkRef is one lazily decodable batch: either a sealed chunk or a
// filtered snapshot of head rows.
type chunkRef struct {
	sr    *segmentReader // nil ⇒ head batch
	entry chunkEntry
	head  []Row
}

// seriesIter yields one series' rows within [from, to) in time order.
type seriesIter struct {
	refs     []chunkRef
	from, to int64
	cur      []Row
	idx      int
	err      error
}

// clip narrows rows (time-sorted) to [from, to).
func clip(rows []Row, from, to int64) []Row {
	lo := sort.Search(len(rows), func(i int) bool { return rows[i].Time >= from })
	hi := sort.Search(len(rows), func(i int) bool { return rows[i].Time >= to })
	return rows[lo:hi]
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
		if ref.sr == nil {
			it.cur = clip(ref.head, it.from, it.to)
		} else {
			rows, err := ref.sr.chunk(ref.entry)
			if err != nil {
				it.err = err
				return nil, false
			}
			it.cur = clip(rows, it.from, it.to)
		}
		it.idx = 0
	}
}

// Iterator walks query results. Typical use:
//
//	it, _ := db.Query(3, from, to)
//	for it.Next() {
//		row := it.Row() // valid until the next call to Next
//	}
//	if err := it.Err(); err != nil { ... }
type Iterator struct {
	m   mergeIter
	row *Row
}

// Next advances to the next row, reporting false at the end of the window
// or on error.
func (it *Iterator) Next() bool {
	var ok bool
	it.row, ok = it.m.next()
	return ok
}

// Row returns the current row; it stays valid until the next call to Next.
func (it *Iterator) Row() *Row { return it.row }

// Err returns the first decoding/IO error encountered, if any.
func (it *Iterator) Err() error { return it.m.failure }

// seriesIterLocked snapshots the chunk refs for one series under db.mu.
// Decoding happens outside the lock.
func (db *DB) seriesIterLocked(series int, from, to int64) *seriesIter {
	it := &seriesIter{from: from, to: to}
	for _, sr := range db.segs {
		for _, e := range sr.overlapping(series, from, to) {
			it.refs = append(it.refs, chunkRef{sr: sr, entry: e})
		}
	}
	if rows := db.head[series]; len(rows) > 0 {
		// Snapshot the slice header: appends either grow beyond the
		// snapshot's length (invisible) or reallocate; elements are
		// never mutated in place.
		it.refs = append(it.refs, chunkRef{head: rows})
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
		it.m.sources = append(it.m.sources, mergeSource{series: s, it: db.seriesIterLocked(s, from, to)})
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
