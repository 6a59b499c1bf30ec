package tsdb

import (
	"encoding/hex"
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
