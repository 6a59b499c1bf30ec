package bus

import (
	"encoding/hex"
	"testing"
)

// TestObservationBytesPinned pins the ping payload a segment on disk
// holds: this exact observation must keep decoding from, and encoding
// to, these exact bytes.
func TestObservationBytesPinned(t *testing.T) {
	const golden = "a0380870726f62652d303700000000006044408fc2f5285c7f52c0" +
		"02055562657258000000000000f83f0000000000006e4002" +
		"06736573732d311f85eb51b85e44401f85eb51b87e52c0" +
		"06736573732d32e17a14ae4761444000000000008052c0" +
		"055562657254000000000000f03f0000000000c0824000"
	data, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	o, err := DecodeObservation(data)
	if err != nil {
		t.Fatalf("DecodeObservation: %v", err)
	}
	if o.Time != 3600 || o.Client != "probe-07" || o.Lat != 40.75 || o.Lng != -73.99 || len(o.Types) != 2 {
		t.Fatalf("decoded %+v", o)
	}
	x, ut := o.Types[0], o.Types[1]
	if x.Name != "UberX" || x.Surge != 1.5 || x.EWT != 240 || len(x.Cars) != 2 ||
		x.Cars[0].ID != "sess-1" || x.Cars[0].Lat != 40.74 || x.Cars[0].Lng != -73.98 ||
		x.Cars[1].ID != "sess-2" || x.Cars[1].Lat != 40.76 || x.Cars[1].Lng != -74.0 {
		t.Fatalf("decoded UberX section %+v", x)
	}
	if ut.Name != "UberT" || ut.Surge != 1 || ut.EWT != 600 || len(ut.Cars) != 0 {
		t.Fatalf("decoded UberT section %+v", ut)
	}
	if got := hex.EncodeToString(AppendObservation(nil, &o)); got != golden {
		t.Fatalf("AppendObservation:\n got %s\nwant %s", got, golden)
	}
}
