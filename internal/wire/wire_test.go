package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func TestZigzagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64, 5, -300} {
		if got := Unzigzag(Zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-tripped to %d", v, got)
		}
	}
}

var sampleTypes = []TypeObs{
	{Name: "uberX", Surge: 1.5, EWT: 240, Cars: []Car{
		{ID: "sess-1", Lat: 40.74, Lng: -73.98},
		{ID: "sess-2", Lat: 40.76, Lng: -74.0},
	}},
	{Name: "uberT", Surge: 1, EWT: 600},
}

// TestReaderEnforcesCaps: each cap a call site passes is a hard limit,
// a failure sticks, and a failed Reader hands out only zero values.
func TestReaderEnforcesCaps(t *testing.T) {
	s := AppendString(nil, "abcde")
	if got := NewReader(s).String(5); got != "abcde" {
		t.Errorf("String at its cap = %q", got)
	}
	for name, read := range map[string]func(*Reader){
		"string over cap":     func(r *Reader) { r.String(4) },
		"bytes over cap":      func(r *Reader) { r.Bytes(4) },
		"string over input":   func(r *Reader) { r.Take(1); r.String(10) },
		"take past end":       func(r *Reader) { r.Take(len(s) + 1) },
		"take negative":       func(r *Reader) { r.Take(-1) },
		"u64 from five bytes": func(r *Reader) { r.Byte(); r.U64() },
	} {
		r := NewReader(s)
		read(r)
		if r.Err() != ErrCorrupt {
			t.Errorf("%s: Err = %v, want ErrCorrupt", name, r.Err())
		}
		if r.Uvarint() != 0 || r.Byte() != 0 || r.Take(0) != nil || r.Types(1, 1, 1) != nil {
			t.Errorf("%s: failed Reader kept reading", name)
		}
	}
	if r := NewReader([]byte{0x80, 0x00}); r.Uvarint() != 0 || r.Err() == nil {
		t.Error("non-minimal varint accepted")
	}

	enc := AppendTypes(nil, sampleTypes)
	for name, caps := range map[string][3]int{
		"types": {1, 2, 6}, "cars": {2, 1, 6}, "strings": {2, 2, 5},
	} {
		r := NewReader(enc)
		if got := r.Types(caps[0], caps[1], caps[2]); got != nil || r.Err() == nil {
			t.Errorf("Types over its %s cap decoded %v", name, got)
		}
	}
	r := NewReader(enc)
	if got := r.Types(2, 2, 6); !reflect.DeepEqual(got, sampleTypes) || r.Err() != nil || r.Remaining() != 0 {
		t.Errorf("Types at its caps = %+v, err %v, %d bytes left", got, r.Err(), r.Remaining())
	}
	// A count no input of this size could back is refused before the
	// slice for it is made.
	if got := NewReader([]byte{0xff, 0x01}).Types(256, 4096, 4096); got != nil {
		t.Errorf("unbacked type count decoded %v", got)
	}
}

// TestResponseRoundTrip: the two conversions are inverses on everything
// the stores keep (path vectors are dropped by design), and empty stays
// nil both ways so stored rows compare equal however they were built.
func TestResponseRoundTrip(t *testing.T) {
	resp := &core.PingResponse{Time: 605, Types: []core.TypeStatus{
		{Type: core.UberX, TypeName: "uberX", Surge: 1.5, EWTSeconds: 240, Cars: []core.CarView{
			{ID: "sess-1", Pos: geo.LatLng{Lat: 40.74, Lng: -73.98}, Path: []geo.LatLng{{Lat: 1, Lng: 2}}},
			{ID: "sess-2", Pos: geo.LatLng{Lat: 40.76, Lng: -74.0}},
		}},
		{Type: core.UberT, TypeName: "uberT", Surge: 1, EWTSeconds: 600},
	}}
	types := FromResponse(resp)
	if !reflect.DeepEqual(types, sampleTypes) {
		t.Fatalf("FromResponse = %+v", types)
	}
	back := new(core.PingResponse)
	if err := FillResponse(back, 605, types); err != nil {
		t.Fatal(err)
	}
	resp.Types[0].Cars[0].Path = nil
	if !reflect.DeepEqual(back, resp) {
		t.Errorf("FillResponse = %+v, want %+v", back, resp)
	}
	if got := FromResponse(&core.PingResponse{}); got != nil {
		t.Errorf("FromResponse of no types = %v, want nil", got)
	}
	back = new(core.PingResponse)
	if err := FillResponse(back, 5, nil); err != nil || back.Types != nil {
		t.Errorf("FillResponse of no types = %+v, %v", back, err)
	}
	if err := FillResponse(new(core.PingResponse), 5, []TypeObs{{Name: "uberWARP"}}); err == nil {
		t.Error("unknown product name converted without error")
	}
}

// TestFillResponseReusesDst: a response filled over a longer earlier row
// answers what a fresh one does, up to an empty Types or Cars that keeps
// the old capacity instead of reading nil, and it reuses that capacity.
func TestFillResponseReusesDst(t *testing.T) {
	long := []TypeObs{
		{Name: "uberX", Surge: 2, EWT: 120, Cars: []Car{{ID: "a"}, {ID: "b"}, {ID: "c"}}},
		{Name: "uberT", Surge: 1, EWT: 300, Cars: []Car{{ID: "d"}, {ID: "e"}}},
		{Name: core.UberBLACK.String(), Surge: 1.2, EWT: 400, Cars: []Car{{ID: "f"}}},
	}
	for _, tc := range []struct {
		name  string
		types []TypeObs
	}{
		{"no types", nil},
		{"a type with no cars", []TypeObs{{Name: "uberT", Surge: 1, EWT: 600}}},
		{"fewer types and cars", sampleTypes},
	} {
		fresh := new(core.PingResponse)
		if err := FillResponse(fresh, 905, tc.types); err != nil {
			t.Fatalf("%s: fresh: %v", tc.name, err)
		}
		dirty := new(core.PingResponse)
		if err := FillResponse(dirty, 5, long); err != nil {
			t.Fatal(err)
		}
		cars := &dirty.Types[0].Cars[:1][0]
		if err := FillResponse(dirty, 905, tc.types); err != nil {
			t.Fatalf("%s: reused: %v", tc.name, err)
		}
		if got := nilEmpty(dirty); !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: reused dst = %+v, fresh = %+v", tc.name, got, fresh)
		}
		if len(tc.types) > 0 && len(tc.types[0].Cars) > 0 && &dirty.Types[0].Cars[0] != cars {
			t.Errorf("%s: the first product's cars were reallocated", tc.name)
		}
	}

	// An unknown product after a longer row is the same error a fresh
	// response gets.
	bad := []TypeObs{{Name: "uberX"}, {Name: "uberWARP"}}
	want := FillResponse(new(core.PingResponse), 905, bad)
	dirty := new(core.PingResponse)
	if err := FillResponse(dirty, 5, long); err != nil {
		t.Fatal(err)
	}
	got := FillResponse(dirty, 905, bad)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("unknown product after a longer row: err %v, fresh %v", got, want)
	}
	if want != nil && want.Error() != `wire: observation at t=905: core: unknown vehicle type "uberWARP"` {
		t.Errorf("unknown product error text = %q", want)
	}
}

// nilEmpty returns a copy of resp whose empty Types and Cars read nil, the
// way a fresh FillResponse leaves them.
func nilEmpty(resp *core.PingResponse) *core.PingResponse {
	out := &core.PingResponse{Time: resp.Time}
	if len(resp.Types) > 0 {
		out.Types = slices.Clone(resp.Types)
	}
	for i := range out.Types {
		if len(out.Types[i].Cars) == 0 {
			out.Types[i].Cars = nil
		}
	}
	return out
}

func appendFramed(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(BeginFrame(buf), payload...)
	EndFrame(buf, start)
	return buf
}

// TestReadFrameEndVersusTorn: a log cut at every possible length reads
// back the frames wholly before the cut, then io.EOF exactly on a frame
// boundary and ErrTorn anywhere else; a flipped byte and a length over
// the caller's cap are torn too, the latter before anything is allocated.
func TestReadFrameEndVersusTorn(t *testing.T) {
	payloads := [][]byte{[]byte("first row"), {}, bytes.Repeat([]byte{0xab}, 40)}
	var log []byte
	bounds := map[int]int{0: 0} // log length → frames before it
	for i, p := range payloads {
		log = appendFramed(log, p)
		bounds[len(log)] = i + 1
	}
	for cut := 0; cut <= len(log); cut++ {
		r := bytes.NewReader(log[:cut])
		var buf []byte
		var err error
		n := 0
		for ; ; n++ {
			if buf, err = ReadFrame(r, 64, buf); err != nil {
				break
			}
			if !bytes.Equal(buf, payloads[n]) {
				t.Fatalf("cut %d: frame %d = %q", cut, n, buf)
			}
		}
		want, whole := bounds[cut]
		if whole && (err != io.EOF || n != want) {
			t.Errorf("cut %d (a frame boundary): %d frames then %v, want %d then io.EOF", cut, n, err, want)
		}
		if !whole && err != ErrTorn {
			t.Errorf("cut %d (inside a frame): %d frames then %v, want ErrTorn", cut, n, err)
		}
	}
	flipped := append([]byte(nil), log...)
	flipped[FrameHeader+2] ^= 1
	if _, err := ReadFrame(bytes.NewReader(flipped), 64, nil); err != ErrTorn {
		t.Errorf("flipped payload byte: %v, want ErrTorn", err)
	}
	if got, err := ReadFrame(bytes.NewReader(log[len(log)-FrameHeader-40:]), 39, nil); err != ErrTorn || got != nil {
		t.Errorf("40-byte payload under a 39-byte cap: %v, %v; want ErrTorn", got, err)
	}
}

// FuzzWire drives the shared primitives with raw bytes; the first byte
// routes the operation. Invariants: nothing panics or allocates beyond
// what the input backs, an accepted varint is the minimal encoding of its
// value, an accepted types section re-encodes byte-identically, and a
// frame scan accepts exactly a prefix that re-frames to the same bytes.
func FuzzWire(f *testing.F) {
	f.Add(append([]byte{0}, AppendTypes(nil, sampleTypes)...))
	f.Add([]byte{0, 0x00})                   // no types
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0x7f}) // a count nothing backs
	f.Add([]byte{1, 0x80, 0x00})             // non-minimal varint
	f.Add([]byte{1, 0xac, 0x02})
	f.Add(append([]byte{2}, AppendString(nil, "http 503")...))
	f.Add(appendFramed(appendFramed([]byte{3}, []byte("row")), nil))
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // a length nothing backs
	f.Add(appendFramed([]byte{3}, []byte("torn"))[:10])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		op, body := data[0]%4, data[1:]
		r := NewReader(body)
		switch op {
		case 0:
			const maxTypes, maxCars, maxStr = 256, 4096, 4096
			types := r.Types(maxTypes, maxCars, maxStr)
			if r.Err() != nil {
				if types != nil {
					t.Fatal("failed Types returned a section")
				}
				return
			}
			if len(types) > maxTypes {
				t.Fatalf("decoded %d types past cap", len(types))
			}
			if re := AppendTypes(nil, types); !bytes.Equal(re, body[:r.off]) {
				t.Fatalf("types section not canonical: %d bytes in, %d out", r.off, len(re))
			}
		case 1:
			v := r.Uvarint()
			if r.Err() != nil {
				return
			}
			if min := binary.AppendUvarint(nil, v); !bytes.Equal(min, body[:r.off]) {
				t.Fatalf("accepted non-minimal varint for %d: %x vs %x", v, body[:r.off], min)
			}
			if sv := Unzigzag(v); Zigzag(sv) != v {
				t.Fatalf("zigzag not involutive at %d", v)
			}
		case 2:
			s := r.String(64)
			b := NewReader(body).Bytes(64)
			if r.Err() != nil {
				return
			}
			if len(s) > 64 || s != string(b) {
				t.Fatalf("String %q and Bytes %q disagree or pass the cap", s, b)
			}
			if re := AppendString(nil, s); !bytes.Equal(re, body[:r.off]) {
				t.Fatalf("string not canonical: %x vs %x", body[:r.off], re)
			}
		case 3:
			const max = 1 << 10
			br := bytes.NewReader(body)
			var re, buf []byte
			for {
				payload, err := ReadFrame(br, max, buf)
				if err != nil {
					// io.EOF exactly when the accepted prefix is the whole
					// input, ErrTorn exactly when it is not.
					if atEnd := len(re) == len(body); !(err == io.EOF && atEnd || err == ErrTorn && !atEnd) {
						t.Fatalf("after a %d-byte prefix of %d bytes: %v", len(re), len(body), err)
					}
					break
				}
				if cap(payload) > max {
					t.Fatalf("a %d-byte buffer for a frame under a %d-byte cap", cap(payload), max)
				}
				buf = payload
				re = appendFramed(re, payload)
			}
			if len(re) > len(body) || !bytes.Equal(re, body[:len(re)]) {
				t.Fatalf("re-framing the accepted payloads: %d bytes that are not a prefix of the input", len(re))
			}
		}
	})
}
