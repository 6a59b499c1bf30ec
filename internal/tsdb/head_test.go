package tsdb

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestAppendCopiesRow: Append borrows its row. The caller keeps every row's
// Types and Cars in one set of arrays and overwrites them after every
// Append, across chunk cuts and a seal, and every row read back — from the
// head's open rows, its encoded chunks and the sealed segment — is the row
// that was appended.
func TestAppendCopiesRow(t *testing.T) {
	const series, rounds = 3, 2*defaultChunkRows + 40
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(26))
	want := make([][]Row, series)
	for s := range want {
		want[s] = randomRows(rng, s, rounds, 0)
	}
	var types [4]TypeObs // randomRows' most products, and their most cars
	var cars [4 * 8]Car
	lend := func(src *Row) Row {
		row := *src
		row.Types = types[:len(src.Types)]
		c := cars[:0]
		for i, ty := range src.Types {
			n := len(c)
			c = append(c, ty.Cars...)
			types[i] = ty
			types[i].Cars = c[n:len(c):len(c)]
		}
		return row
	}
	clobber := func() {
		for i := range cars {
			cars[i] = Car{ID: "clobbered", Lat: -1, Lng: -1}
		}
		for i := range types {
			types[i] = TypeObs{Name: "clobbered", Surge: -1, EWT: -1, Cars: cars[i : i+1]}
		}
	}
	check := func(n int) { // every series' first n rows
		t.Helper()
		for s := range want {
			requireByteEqual(t, collect(t, db.Query(s, math.MinInt64, math.MaxInt64)), want[s][:n])
		}
	}
	for i := 0; i < rounds; i++ {
		for s := range want {
			if err := db.Append(lend(&want[s][i])); err != nil {
				t.Fatal(err)
			}
			clobber()
		}
		switch i + 1 {
		case 100, defaultChunkRows, defaultChunkRows + 30: // open rows; the first cut; rows after it
			check(i + 1)
		case defaultChunkRows + 60:
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			check(i + 1)
		}
	}
	check(rounds)
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	check(rounds)
}

// TestAppendReusesHeadStorage: a cut resets a series' open columns and the
// next rows are added into the same buffers. So once every series has cut
// its first chunk, a further chunk of appends of rows shaped like the
// first allocates only what its cuts keep: each series' encoded payload
// and its chunk list's growth.
func TestAppendReusesHeadStorage(t *testing.T) {
	const series = 43
	db, err := Open(t.TempDir(), Options{HeadMaxRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(27))
	chunk := make([][]Row, series)
	for s := range chunk {
		chunk[s] = randomRows(rng, s, defaultChunkRows, 0)
	}
	appendChunk := func(lap int64) {
		for i := 0; i < defaultChunkRows; i++ {
			for s := range chunk {
				row := chunk[s][i]
				row.Time += lap * 5 * defaultChunkRows
				if err := db.Append(row); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	appendChunk(0)
	objects, bytes := allocated(func() { appendChunk(1) })
	var payloads uint64
	for _, hs := range db.head {
		if len(hs.chunks) != 2 || hs.open.rows() != 0 {
			t.Fatalf("a series holds %d chunks and %d open rows, want 2 and 0", len(hs.chunks), hs.open.rows())
		}
		payloads += uint64(cap(hs.chunks[1].payload))
	}
	t.Logf("a chunk of %d appends: %d objects, %d B (cut payloads %d B)", series*defaultChunkRows, objects, bytes, payloads)
	if maxObjects := uint64(2*series + 8); objects > maxObjects {
		t.Errorf("a chunk of appends allocated %d objects, budget %d", objects, maxObjects)
	}
	if maxBytes := payloads + 2*series*uint64(unsafe.Sizeof(headChunk{})) + 4<<10; bytes > maxBytes {
		t.Errorf("a chunk of appends allocated %d B, budget %d", bytes, maxBytes)
	}
}
