// Package wire is the one place that knows how a ping is stored. It owns
// the byte-level primitives the bus and tsdb codecs are built from (a
// bounds-checked Reader, zigzag varints, length-prefixed strings), the
// stored form of an observation (TypeObs, Car — the bus Observation and
// the tsdb Row both carry []TypeObs) with its flat binary
// codec, the only two conversions between that form and the API's
// core.PingResponse, and the crash-safe whole-file replace the stores'
// small metadata files go through (WriteFileAtomic).
//
// Every codec here is canonical: varints must be minimal and counts are
// checked against the bytes that must back them before anything is
// allocated, so arbitrary input yields an error, never a panic or an
// unbounded allocation, and any accepted input re-encodes to the same
// bytes (FuzzWire pins both).
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrCorrupt is the Reader's sticky failure. The bus and tsdb decoders
// report their own ErrCorrupt for it, so callers match on those.
var ErrCorrupt = errors.New("wire: corrupt data")

// Zigzag maps signed to unsigned so small magnitudes encode short.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendString appends s with a uvarint length prefix.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendF64 appends v's IEEE-754 bits, little-endian.
func AppendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Reader is a bounds-checked cursor over untrusted bytes. The first
// failure sticks: every later read returns a zero value, so callers
// check Err once at the end (or before trusting a count).
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err is ErrCorrupt once any read has failed, nil before.
func (r *Reader) Err() error { return r.err }

// Fail marks the input corrupt; decoders layered on the Reader call it
// for violations of their own rules.
func (r *Reader) Fail() { r.err = ErrCorrupt }

// Remaining is the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint decodes a minimally-encoded varint. A non-minimal encoding (a
// trailing zero continuation byte, e.g. 0x80 0x00 for zero) is rejected
// so every value has exactly one byte representation.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) {
		r.Fail()
		return 0
	}
	r.off += n
	return v
}

// Varint decodes a zigzag varint.
func (r *Reader) Varint() int64 { return Unzigzag(r.Uvarint()) }

// Take returns the next n bytes without copying.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Fail()
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	b := r.Take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads a float64 written by AppendF64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// prefixed reads a uvarint length of at most max and takes that many
// bytes.
func (r *Reader) prefixed(max int) []byte {
	n := r.Uvarint()
	if r.err != nil || n > uint64(max) || n > uint64(r.Remaining()) {
		r.Fail()
		return nil
	}
	return r.Take(int(n))
}

// String reads a string written by AppendString, at most max bytes long.
func (r *Reader) String(max int) string { return string(r.prefixed(max)) }

// Bytes reads a length-prefixed byte string of at most max bytes into a
// fresh slice (nil when empty).
func (r *Reader) Bytes(max int) []byte {
	b := r.prefixed(max)
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
