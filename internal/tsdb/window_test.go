package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// TestChunkWindowDecode: the rows a window builds are exactly the rows
// inWindow keeps of the whole chunk, for empty, one-row, whole and straddling
// windows, with one decoder reused across chunks of every size.
func TestChunkWindowDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var d chunkDecoder
	for trial := 0; trial < 60; trial++ {
		n := []int{1, 2, 7, 100, defaultChunkRows}[rng.Intn(5)]
		rows := randomRows(rng, 5, n, int64(rng.Intn(1000)))
		payload := encodeChunk(rows)
		full, err := decodeChunk(payload, 5)
		if err != nil {
			t.Fatal(err)
		}
		first, last := rows[0].Time, rows[n-1].Time
		a, b := rows[rng.Intn(n)].Time, rows[rng.Intn(n)].Time
		windows := [][2]int64{
			{first, first},                 // empty, at a row
			{first - 100, first},           // before every row
			{last + 1, last + 100},         // after every row
			{a, a + 1},                     // one row
			{math.MinInt64, math.MaxInt64}, // whole
			{first, last + 1},              // whole, exactly
			{min(a, b), max(a, b) + 1},     // straddling
			{min(a, b) + 1, max(a, b) + 3}, // straddling, off the stamps
			{max(a, b) + 1, min(a, b)},     // inverted
		}
		if err := d.decode(payload, 5); err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			requireByteEqual(t, windowRows(&d, w[0], w[1]), inWindow(full, w[0], w[1]))
		}
	}
}

// TestChunkWindowValidatesWholeChunk: a dictionary reference out of range
// in a row outside the window still makes the chunk corrupt.
func TestChunkWindowValidatesWholeChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rows := randomRows(rng, 1, 100, 0)
	last := rows[len(rows)-1].Time + 5
	rows = append(rows, Row{Time: last, Series: 1, Gap: true, Reason: "only in the last row"})
	payload := encodeChunk(rows)

	// Re-encode the dictionary without its last entry, the last row's
	// reason: that row's reference is now one past the end.
	r := wire.NewReader(payload)
	nRows := r.Uvarint()
	strs, err := dictDecode(r)
	if err != nil || strs[len(strs)-1] != "only in the last row" {
		t.Fatalf("dictionary %q: %v", strs, err)
	}
	var dict dictBuilder
	for _, s := range strs[:len(strs)-1] {
		dict.id(s)
	}
	bad := dict.encode(binary.AppendUvarint(nil, nRows))
	bad = append(bad, r.Take(r.Remaining())...)

	var d chunkDecoder
	for _, w := range [][2]int64{{math.MinInt64, math.MaxInt64}, {0, 6}, {200, 300}, {last, last + 1}, {7, 7}} {
		if err := d.decode(payload, 1); err != nil {
			t.Fatalf("the intact chunk: %v", err)
		}
		if len(windowRows(&d, w[0], w[1])) == 0 && w[0] != w[1] {
			t.Fatalf("window %v of the intact chunk is empty", w)
		}
		if err := d.decode(bad, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("window %v: err = %v, want ErrCorrupt", w, err)
		}
	}
}

// inWindow returns the rows with from ≤ Time < to: the oracle a window
// decode is held to.
func inWindow(rows []Row, from, to int64) []Row {
	var out []Row
	for _, r := range rows {
		if r.Time >= from && r.Time < to {
			out = append(out, r)
		}
	}
	return out
}

// decodeChunk decodes a chunk payload into rows the caller owns,
// assigning every row the given series. It never panics on corrupt input.
func decodeChunk(payload []byte, series int) ([]Row, error) {
	var d chunkDecoder
	if err := d.decode(payload, series); err != nil {
		return nil, err
	}
	return windowRows(&d, math.MinInt64, math.MaxInt64), nil
}

// windowRows copies the rows of d with from ≤ Time < to out of it, as a
// query's series does, and builds each one, deep-copied.
func windowRows(d *chunkDecoder, from, to int64) []Row {
	var (
		w   decodedCols
		buf rowBuf
		out []Row
	)
	d.window(&w, from, to)
	for k := range w.times {
		out = append(out, cloneRow(buf.build(&w, k)))
	}
	return out
}

// cloneRow deep-copies a lent row.
func cloneRow(r *Row) Row {
	c := *r
	c.Types = slices.Clone(r.Types)
	for i := range c.Types {
		c.Types[i].Cars = slices.Clone(c.Types[i].Cars)
	}
	return c
}

// TestWindowRowsDoNotAlias: the Cars of a built row's types share one
// slab, so an append to one type's Cars must not write into the next
// type's.
func TestWindowRowsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := randomRows(rng, 2, 200, 0)
	var d chunkDecoder
	if err := d.decode(encodeChunk(rows), 2); err != nil {
		t.Fatal(err)
	}
	var (
		w   decodedCols
		buf rowBuf
	)
	d.window(&w, rows[50].Time, rows[150].Time)
	want := inWindow(rows, rows[50].Time, rows[150].Time)
	if len(w.times) != len(want) {
		t.Fatalf("window holds %d rows, want %d", len(w.times), len(want))
	}
	for k := range w.times {
		r := buf.build(&w, k)
		if !r.Gap {
			cars := r.Types[0].Cars
			r.Types[0].Cars = append(cars, Car{ID: "intruder"})
			r.Types[0].Cars = cars
		}
		requireByteEqual(t, []Row{*r}, want[k:k+1])
	}
}

// TestIteratorLendsRows: the row an Iterator lends is intact until the
// next Next, across sealed chunks, head chunks, the head's open rows and
// a Seal and Compact that run while it iterates.
func TestIteratorLendsRows(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(24))
	want := randomRows(rng, 0, 5*defaultChunkRows+30, 0)
	for i, row := range want {
		if err := db.Append(row); err != nil {
			t.Fatal(err)
		}
		if i+1 == 2*defaultChunkRows {
			if err := db.Seal(); err != nil { // two sealed chunks, three in the head and open rows
				t.Fatal(err)
			}
		}
	}
	it := db.Query(0, math.MinInt64, math.MaxInt64)
	var prev *Row
	n := 0
	for ; it.Next(); n++ {
		row := it.Row()
		if n > 0 && row != prev {
			t.Fatalf("row %d lent at %p, row %d at %p: want one row, reused", n, row, n-1, prev)
		}
		prev = row
		if n == len(want)/2 {
			// Seal the head from under the iterator; it reads the chunk
			// refs it snapshotted.
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		requireByteEqual(t, []Row{*row}, want[n:n+1])
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("iterated %d rows, want %d", n, len(want))
	}
}
