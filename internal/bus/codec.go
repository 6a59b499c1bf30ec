// The wire format.
//
// Segment file layout:
//
//	magic "UBERBUS1" (8 bytes)
//	frame*: one wire frame (len u32 ‖ crc32 u32 ‖ payload) per event
//
// An event's offset is implied by its position: the segment's base offset
// (from the file name) plus its frame index. The payload codec is a flat
// varint encoding with a per-segment string dictionary: Key and Str
// values repeat heavily (the same driver session across a trip, the same
// area label every update), so each unique string is written once and
// referenced by index afterwards. The dictionary resets at every segment
// boundary, which keeps segments self-contained — a reader can start at
// any segment with no external state.
//
// The codec is canonical: varints must be minimal, a dictionary
// new-entry for an already-known string is rejected, and decoders must
// consume their input exactly. Canonicality is what lets the fuzz target
// assert decode→encode byte-identity, the same witness the tsdb codec
// uses.

package bus

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// ErrCorrupt marks undecodable bytes (bad magic, bad CRC, non-canonical
// or truncated payloads).
var ErrCorrupt = errors.New("bus: corrupt data")

const segMagic = "UBERBUS1"

// Sanity caps applied when decoding untrusted bytes, generous multiples
// of anything the backend actually publishes.
const (
	maxFramePayload = 1 << 22 // 4 MiB per event
	maxDictEntries  = 4096    // unique strings per segment
	maxStringLen    = 1 << 12
	maxDataLen      = 1 << 21
	maxObsTypes     = 256
	maxObsCars      = 4096
)

// encDict is the encoder side of the per-segment string dictionary.
type encDict struct {
	idx map[string]uint64
}

func newEncDict() *encDict { return &encDict{idx: make(map[string]uint64)} }

// full reports whether the next event could overflow the dictionary (an
// event introduces at most two new strings: Key and Str).
func (d *encDict) full() bool { return len(d.idx)+2 > maxDictEntries }

// appendStr writes s as a dictionary reference, adding it on first use:
// a known string is its index; a new string is index==len(dict) followed
// by the raw bytes.
func (d *encDict) appendStr(buf []byte, s string) []byte {
	if i, ok := d.idx[s]; ok {
		return binary.AppendUvarint(buf, i)
	}
	i := uint64(len(d.idx))
	d.idx[s] = i
	buf = binary.AppendUvarint(buf, i)
	return wire.AppendString(buf, s)
}

// decDict is the decoder side; it tracks entries both by index (for
// references) and by value (to reject duplicate new-entries, which would
// break canonicality).
type decDict struct {
	entries []string
	seen    map[string]struct{}
}

func newDecDict() *decDict { return &decDict{seen: make(map[string]struct{})} }

func (d *decDict) str(r *wire.Reader) string {
	i := r.Uvarint()
	if r.Err() != nil {
		return ""
	}
	if i < uint64(len(d.entries)) {
		return d.entries[i]
	}
	if i != uint64(len(d.entries)) || i >= maxDictEntries {
		r.Fail()
		return ""
	}
	s := r.String(maxStringLen)
	if r.Err() != nil {
		return ""
	}
	if _, dup := d.seen[s]; dup {
		// A new-entry for a known string: the canonical encoder would
		// have emitted a reference.
		r.Fail()
		return ""
	}
	d.entries = append(d.entries, s)
	d.seen[s] = struct{}{}
	return s
}

// toEnc rebuilds the matching encoder state, so a reopened segment keeps
// encoding with the dictionary its existing frames established.
func (d *decDict) toEnc() *encDict {
	e := newEncDict()
	for i, s := range d.entries {
		e.idx[s] = uint64(i)
	}
	return e
}

// appendEvent appends ev's payload encoding (no frame) using dict.
func appendEvent(buf []byte, ev *Event, dict *encDict) []byte {
	buf = binary.AppendUvarint(buf, wire.Zigzag(ev.Time))
	buf = append(buf, byte(ev.Kind))
	buf = dict.appendStr(buf, ev.Key)
	buf = binary.AppendUvarint(buf, wire.Zigzag(int64(ev.Area)))
	buf = wire.AppendF64(buf, ev.Num)
	buf = dict.appendStr(buf, ev.Str)
	buf = binary.AppendUvarint(buf, uint64(len(ev.Data)))
	buf = append(buf, ev.Data...)
	return buf
}

// decodeEvent decodes one payload, which must be consumed exactly.
func decodeEvent(data []byte, dict *decDict) (Event, error) {
	r := wire.NewReader(data)
	var ev Event
	ev.Time = r.Varint()
	ev.Kind = Kind(r.Byte())
	ev.Key = dict.str(r)
	area := r.Varint()
	if area < math.MinInt32 || area > math.MaxInt32 {
		return Event{}, ErrCorrupt
	}
	ev.Area = int32(area)
	ev.Num = r.F64()
	ev.Str = dict.str(r)
	ev.Data = r.Bytes(maxDataLen)
	if r.Err() != nil || r.Remaining() != 0 {
		return Event{}, ErrCorrupt
	}
	return ev, nil
}

// AppendObservation appends o's flat encoding. Unlike the event codec it
// is stateless (an Observation travels inside one event's Data), but it
// follows the same canonical rules.
func AppendObservation(buf []byte, o *Observation) []byte {
	buf = binary.AppendUvarint(buf, wire.Zigzag(o.Time))
	buf = wire.AppendString(buf, o.Client)
	buf = wire.AppendF64(buf, o.Lat)
	buf = wire.AppendF64(buf, o.Lng)
	return wire.AppendTypes(buf, o.Types)
}

// DecodeObservation decodes data, which must contain exactly one
// encoded Observation.
func DecodeObservation(data []byte) (Observation, error) {
	r := wire.NewReader(data)
	var o Observation
	o.Time = r.Varint()
	o.Client = r.String(maxStringLen)
	o.Lat = r.F64()
	o.Lng = r.F64()
	o.Types = r.Types(maxObsTypes, maxObsCars, maxStringLen)
	if r.Err() != nil || r.Remaining() != 0 {
		return Observation{}, ErrCorrupt
	}
	return o, nil
}
