package core

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/geo"
)

// encodeWith feeds r to e in document order, as the service's ping walk
// does, and returns the body.
func encodeWith(e *PingEncoder, r *PingResponse) ([]byte, error) {
	e.Reset()
	e.Begin(r.Time)
	for _, ts := range r.Types {
		e.Type(ts.TypeName)
		for _, c := range ts.Cars {
			e.Car(c.ID, c.Pos, c.Path)
		}
		e.EndType(ts.EWTSeconds, ts.Surge)
	}
	return e.End()
}

// requireSameEncoding holds PingEncoder to what json.NewEncoder writes for r
// (non-nil Types and Cars): the same bytes, or the same error.
func requireSameEncoding(t *testing.T, r *PingResponse) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(r)
	var e PingEncoder
	got, err := encodeWith(&e, r)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("error %v, encoding/json %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Fatalf("error %q, encoding/json %q", err, wantErr)
		}
	case !bytes.Equal(got, want.Bytes()):
		t.Fatalf("body differs from encoding/json:\n got %q\nwant %q", got, want.Bytes())
	}
}

// oneCar is a ping of one product with one car whose every field is one of
// the given values.
func oneCar(tm int64, s string, x float64) *PingResponse {
	return &PingResponse{Time: tm, Types: []TypeStatus{{
		TypeName:   s,
		Cars:       []CarView{{ID: s, Pos: geo.LatLng{Lat: x, Lng: -x}, Path: []geo.LatLng{{Lat: 1, Lng: x}, {Lat: x, Lng: 2}}}},
		EWTSeconds: x,
		Surge:      1,
	}}}
}

func TestPingEncoderMatchesEncodingJSON(t *testing.T) {
	requireSameEncoding(t, canonicalPing())
	requireSameEncoding(t, &PingResponse{Time: -1, Types: []TypeStatus{}})
	requireSameEncoding(t, &PingResponse{Time: 602, Types: []TypeStatus{
		{TypeName: "uberX", Cars: []CarView{}, Surge: 1.3},
		{TypeName: "uberBLACK", Surge: 2.1, EWTSeconds: 95.5, Cars: []CarView{
			{ID: "c0000000100000002", Pos: geo.LatLng{Lat: 40.75, Lng: -73.98}},
			{ID: "c0000000300000004", Path: []geo.LatLng{{Lat: 40.7501, Lng: -73.9801}}},
		}},
	}})
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 123456789.125,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5e300, 2.5e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		requireSameEncoding(t, oneCar(1, "uberX", x))
	}
	for _, s := range []string{"", "a<b", "a>b", "a&b", `a"b`, `a\b`, "\x00\x1f", "\x7f", "\xff", "a\xc3", "  ", "é", "\U0001F695", "\t"} {
		requireSameEncoding(t, oneCar(1, s, 1))
	}
	// The first refused value in document order is the one encoding/json names.
	first := oneCar(7, "uberX", 1)
	first.Types[0].EWTSeconds, first.Types[0].Surge = math.Inf(-1), math.NaN()
	requireSameEncoding(t, first)
}

// A warm encoder writes the canonical ping without allocating.
func TestPingEncoderAllocs(t *testing.T) {
	r := canonicalPing()
	var e PingEncoder
	if _, err := encodeWith(&e, r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = encodeWith(&e, r) }); n != 0 {
		t.Errorf("%.1f allocations per canonical ping, want 0", n)
	}
}

// FuzzPingEncode pins the encoder to encoding/json as FuzzPingDecode pins
// the decoder: on arbitrary values the float and string appenders write
// json.Marshal's bytes or return its error, and so does a whole body.
func FuzzPingEncode(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 1e-6, 40.7549, -73.984, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(int64(600), x, "uberX")
	}
	for _, s := range []string{"<>&", `"q"`, "\\", "\x00\x01\x1f", "\xff\xfe", " ", "c0000000100000002"} {
		f.Add(int64(-5), 1.25, s)
	}
	f.Fuzz(func(t *testing.T, tm int64, x float64, s string) {
		got, err := appendFloat([]byte("["), x)
		want, wantErr := json.Marshal(x)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("appendFloat(%v) error %v, json.Marshal %v", x, err, wantErr)
		}
		if err == nil && string(got) != "["+string(want) {
			t.Fatalf("appendFloat(%v) = %q, json.Marshal %q", x, got[1:], want)
		}
		want, _ = json.Marshal(s)
		if got := appendString([]byte("["), s); string(got) != "["+string(want) {
			t.Fatalf("appendString(%q) = %q, json.Marshal %q", s, got[1:], want)
		}
		requireSameEncoding(t, oneCar(tm, s, x))
	})
}
