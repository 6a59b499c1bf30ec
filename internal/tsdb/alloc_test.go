package tsdb

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// allocated returns the objects and bytes f allocates.
func allocated(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// campaignStore appends rounds of the benchmark campaign to a fresh store
// that seals only when asked.
func campaignStore(t *testing.T, rounds [][]Row, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range rounds {
		for _, row := range round {
			if err := db.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSealAllocBudget: a seal copies the head's encoded chunks and encodes
// only the open rows, through one reused encoder, so what it allocates is
// bounded per chunk, not per value: objects by a handful per chunk, bytes
// by the file it writes plus a write buffer. Encoding every chunk at the
// seal, each column grown one append at a time, allocated 178 objects and
// 501 kB per chunk of this campaign.
func TestSealAllocBudget(t *testing.T) {
	const rounds = 1600 // three full chunks and a partial one per series
	byRound := benchCampaign(rounds)
	db := campaignStore(t, byRound, Options{HeadMaxRows: 1 << 20})
	defer db.Close()
	objects, bytes := allocated(func() {
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
	})
	st := db.Stats()
	chunks := uint64(len(byRound[0])) * (rounds/defaultChunkRows + 1)
	t.Logf("seal of %d chunks (%d B): %d objects, %d B", chunks, st.SegmentBytes, objects, bytes)
	if maxObjects := 4*chunks + 256; objects > maxObjects {
		t.Errorf("seal allocated %d objects for %d chunks, budget %d", objects, chunks, maxObjects)
	}
	if maxBytes := 2*uint64(st.SegmentBytes) + 4<<20; bytes > maxBytes {
		t.Errorf("seal allocated %d B to write %d B, budget %d", bytes, st.SegmentBytes, maxBytes)
	}
}

// TestRangeQueryAllocBudget: a 120-round window of a sealed 1,600-round
// store copies only the window's rows out of each chunk, as columns, and
// lends one row at a time, so a QueryAll allocates less than the window's
// rows would occupy as Row, TypeObs and Car values. Building every
// overlapping 512-row chunk whole costs more than four times as much.
func TestRangeQueryAllocBudget(t *testing.T) {
	byRound := benchCampaign(1600)
	db := campaignStore(t, byRound, Options{})
	defer db.Close()
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	from := byRound[700][0].Time
	to := byRound[820][0].Time
	var rows, size uint64
	_, bytes := allocated(func() {
		it := db.QueryAll(from, to)
		for it.Next() {
			r := it.Row()
			rows++
			size += uint64(unsafe.Sizeof(*r)) + uint64(len(r.Types))*uint64(unsafe.Sizeof(TypeObs{}))
			for _, ty := range r.Types {
				size += uint64(len(ty.Cars)) * uint64(unsafe.Sizeof(Car{}))
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d rows, %d B decoded: %d B allocated (%.2fx)", rows, size, bytes, float64(bytes)/float64(size))
	if want := uint64(120 * len(byRound[0])); rows != want {
		t.Fatalf("window holds %d rows, want %d", rows, want)
	}
	if bytes > size {
		t.Errorf("a window of %d B of rows allocated %d B, budget %d", size, bytes, size)
	}
}

// sealedCampaign is a sealed store of the benchmark campaign's rows
// (benchCampaign's, drawn from the same seed in the same order), appended
// one series at a time and sealed once, so the test never holds every row.
func sealedCampaign(t *testing.T, rounds int) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{HeadMaxRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < 43; s++ {
		for _, row := range randomRows(rng, s, rounds, 0) {
			if err := db.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryAllAllocBounded: a full QueryAll lends one row at a time and
// keeps one chunk window per series, so what it allocates is bounded by
// the series, not the rows: at most 100 B per row of a 4,096-round store,
// and at most twice what the same scan of a 1,024-round store allocates.
// Building each window's rows into fresh slabs cost 377.5 B per row at
// 4,096 rounds, 3.9 times the 1,024-round scan.
func TestQueryAllAllocBounded(t *testing.T) {
	scan := func(rounds int) (rows, bytes uint64) {
		db := sealedCampaign(t, rounds)
		defer db.Close()
		_, bytes = allocated(func() {
			it := db.QueryAll(-1<<62, 1<<62)
			for it.Next() {
				rows++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		})
		if want := uint64(43 * rounds); rows != want {
			t.Fatalf("scan of %d rounds saw %d rows, want %d", rounds, rows, want)
		}
		return rows, bytes
	}
	smallRows, small := scan(1024)
	rows, bytes := scan(4096)
	perRow := float64(bytes) / float64(rows)
	t.Logf("1,024 rounds: %d B (%.1f B/row); 4,096 rounds: %d B (%.1f B/row, %.2fx)",
		small, float64(small)/float64(smallRows), bytes, perRow, float64(bytes)/float64(small))
	if perRow > 100 {
		t.Errorf("a full scan of %d rows allocated %.1f B per row, budget 100", rows, perRow)
	}
	if bytes > 2*small {
		t.Errorf("a full scan of 4,096 rounds allocated %d B, budget twice the 1,024-round scan's %d B", bytes, small)
	}
}

// TestQueryDuringHeadChunkCut: iterators read the head while Append cuts
// its chunks and Seal empties it. Run under -race; every row an iterator
// yields must be the row appended at that place.
func TestQueryDuringHeadChunkCut(t *testing.T) {
	const series, rounds = 3, 3 * defaultChunkRows
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(25))
	want := make([][]Row, series)
	for s := range want {
		want[s] = randomRows(rng, s, rounds, 0)
	}
	appendRound := func(i int) error {
		for s := range want {
			if err := db.Append(want[s][i]); err != nil {
				return err
			}
		}
		return db.Commit()
	}
	for i := 0; i < defaultChunkRows-8; i++ { // readers start just before the first cut
		if err := appendRound(i); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it := db.QueryAll(-1<<62, 1<<62)
				next := make([]int, series)
				for it.Next() {
					row := it.Row()
					i := next[row.Series]
					next[row.Series]++
					if string(appendRowBinary(nil, row)) != string(appendRowBinary(nil, &want[row.Series][i])) {
						t.Errorf("series %d row %d differs from the row appended there", row.Series, i)
						return
					}
				}
				if err := it.Err(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := defaultChunkRows - 8; i < rounds; i++ {
		if err := appendRound(i); err != nil {
			t.Error(err)
			break
		}
		if i == 2*defaultChunkRows-4 {
			if err := db.Seal(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(done)
	wg.Wait()
}
