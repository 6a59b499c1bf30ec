package tsdb

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWALRowBytesPinned pins the WAL record payload of one observation
// row and one gap row: stores written before must keep recovering, and
// the same rows must keep encoding to the same bytes.
func TestWALRowBytesPinned(t *testing.T) {
	cases := []struct {
		name, golden string
		row          Row
	}{
		{"observation", "a0380700" +
			"02055562657258000000000000f83f0000000000006e4002" +
			"06736573732d311f85eb51b85e44401f85eb51b87e52c0" +
			"06736573732d32e17a14ae4761444000000000008052c0" +
			"055562657254000000000000f03f0000000000c0824000",
			Row{Time: 3600, Series: 7, Types: []TypeObs{
				{Name: "UberX", Surge: 1.5, EWT: 240, Cars: []Car{
					{ID: "sess-1", Lat: 40.74, Lng: -73.98},
					{ID: "sess-2", Lat: 40.76, Lng: -74.0},
				}},
				{Name: "UberT", Surge: 1, EWT: 600},
			}}},
		{"gap", "09ac0201086874747020353033",
			Row{Time: -5, Series: 300, Gap: true, Reason: "http 503"}},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(appendRowBinary(nil, &tc.row)); got != tc.golden {
			t.Errorf("%s: appendRowBinary:\n got %s\nwant %s", tc.name, got, tc.golden)
		}
		data, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		row, err := decodeRowBinary(data)
		if err != nil {
			t.Fatalf("%s: decodeRowBinary: %v", tc.name, err)
		}
		if !reflect.DeepEqual(row, tc.row) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, row, tc.row)
		}
	}
}

// TestSegmentBytesPinned pins the bytes of sealed and compacted segments.
// A seeded 43-series head of 1,600 rounds (three full 512-row chunks and a
// 64-row one per series) must seal to the same file whether it was
// appended in one go or recovered from the WAL after a crash at round
// 1,100; compacting it with the next 1,600 rounds, which re-chunks each
// series across the segment boundary, must give the same merged file.
func TestSegmentBytesPinned(t *testing.T) {
	const (
		rounds    = 1600
		crashAt   = 1100
		sealed    = "2e49255461a7f6cfe6494bb2c82b3d75fcb069eff476615eb7ae7bb6cc2b14fa" // 00000001-00000001.seg
		compacted = "c76e810169e222e0832ed219f063f385787b420dca1c25e9cffe912c0993d733" // 00000001-00000002.seg
	)
	byRound := benchCampaign(2 * rounds)
	open := func(dir string) *DB {
		t.Helper()
		db, err := Open(dir, Options{HeadMaxRows: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	appendRounds := func(db *DB, from, to int) {
		t.Helper()
		for _, round := range byRound[from:to] {
			for _, row := range round {
				if err := db.Append(row); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	seal := func(db *DB) {
		t.Helper()
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	requireHash := func(what, dir string, lo, hi uint64, want string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "seg", segFileName(lo, hi)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: segment SHA-256 %x, want %s", what, sum, want)
		}
	}

	dir := t.TempDir()
	db := open(dir)
	appendRounds(db, 0, rounds)
	seal(db)
	requireHash("sealed", dir, 1, 1, sealed)
	appendRounds(db, rounds, 2*rounds)
	seal(db)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	requireHash("compacted", dir, 1, 2, compacted)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	dir = t.TempDir()
	db = open(dir)
	appendRounds(db, 0, crashAt)
	crash(db)
	db = open(dir)
	if got, want := db.Recovered(), crashAt*len(byRound[0]); got != want {
		t.Fatalf("recovered %d rows, want %d", got, want)
	}
	appendRounds(db, crashAt, rounds)
	seal(db)
	requireHash("sealed after WAL recovery", dir, 1, 1, sealed)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
