package bus

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzEventCodec drives the bus wire format with raw bytes. The first
// byte routes the operation; the rest is the input. Invariants:
//
//   - no decoder panics or over-allocates on arbitrary input
//   - any accepted input re-encodes byte-identically (the codec is
//     canonical, so decode is injective on the accepted set)
//   - frame scanning (the segment cursor) accepts exactly a prefix of the
//     body, and re-framing that prefix reproduces its bytes
func FuzzEventCodec(f *testing.F) {
	// A framed segment body with dictionary reuse across frames.
	enc := newEncDict()
	var seg []byte
	for _, ev := range []Event{
		{Time: 60, Kind: KindDriverSpawn, Key: "sess-aa", Area: 12},
		{Time: 65, Kind: KindTripDispatch, Key: "sess-aa", Area: 12, Num: 1.5, Str: "UberX"},
		{Time: 120, Kind: KindTripComplete, Key: "sess-aa", Area: 14, Num: 23.40, Str: "UberX"},
	} {
		seg = appendFramed(seg, &ev, enc)
	}
	f.Add(append([]byte{0}, seg...))

	ev := Event{Time: 3600, Kind: KindSurgeChange, Key: "area-07", Area: 7, Num: 2.1}
	f.Add(append([]byte{1}, appendEvent(nil, &ev, newEncDict())...))

	o := Observation{
		Client: "probe-03", Lat: 40.7, Lng: -74.0, Time: 1800,
		Types: []wire.TypeObs{{Name: "UberX", Surge: 1.2, EWT: 300,
			Cars: []wire.Car{{ID: "s-1", Lat: 40.71, Lng: -74.01}}}},
	}
	f.Add(append([]byte{2}, AppendObservation(nil, &o)...))
	f.Add([]byte{2, 0x80, 0x00})       // non-minimal varint where the time belongs
	f.Add([]byte{0, 0xff, 0xff, 0xff}) // torn frame header

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		op, body := data[0]%3, data[1:]
		switch op {
		case 0:
			fuzzFrames(t, body)
		case 1:
			fuzzEvent(t, body)
		case 2:
			fuzzObservation(t, body)
		}
	})
}

func appendFramed(buf []byte, ev *Event, enc *encDict) []byte {
	start := len(buf)
	buf = appendEvent(wire.BeginFrame(buf), ev, enc)
	wire.EndFrame(buf, start)
	return buf
}

// fuzzFrames: the segment cursor, over body as a segment's frames,
// accepts a prefix; re-encoding the decoded events with a fresh
// dictionary must reproduce that prefix exactly.
func fuzzFrames(t *testing.T, body []byte) {
	var c segCursor
	if !c.attach(bytes.NewReader(append([]byte(segMagic), body...)), 100) {
		t.Fatal("cursor refused a segment that starts with the magic")
	}
	var evs []Event
	for ev, ok := c.readFrame(); ok; ev, ok = c.readFrame() {
		evs = append(evs, ev)
	}
	goodSize := c.off
	prefix := goodSize - int64(len(segMagic))
	if prefix < 0 || prefix > int64(len(body)) {
		t.Fatalf("goodSize %d out of range for %d-byte body", goodSize, len(body))
	}
	for i, ev := range evs {
		if ev.Seq != 100+int64(i) {
			t.Fatalf("frame %d assigned seq %d", i, ev.Seq)
		}
	}
	enc := newEncDict()
	var re []byte
	for i := range evs {
		re = appendFramed(re, &evs[i], enc)
	}
	if !bytes.Equal(re, body[:prefix]) {
		t.Fatalf("re-framing %d events: got %d bytes != accepted %d-byte prefix", len(evs), len(re), prefix)
	}
}

// fuzzEvent: a single accepted payload re-encodes byte-identically
// under the reconstructed dictionary state.
func fuzzEvent(t *testing.T, body []byte) {
	dict := newDecDict()
	ev, err := decodeEvent(body, dict)
	if err != nil {
		return
	}
	re := appendEvent(nil, &ev, newEncDict())
	if !bytes.Equal(re, body) {
		t.Fatalf("event not canonical: %d bytes in, %d out", len(body), len(re))
	}
}

func fuzzObservation(t *testing.T, body []byte) {
	o, err := DecodeObservation(body)
	if err != nil {
		return
	}
	if len(o.Types) > maxObsTypes {
		t.Fatalf("decoded %d types past cap", len(o.Types))
	}
	re := AppendObservation(nil, &o)
	if !bytes.Equal(re, body) {
		t.Fatalf("observation not canonical: %d bytes in, %d out", len(body), len(re))
	}
}
