// Codec primitives for the columnar block format, over package wire's
// bounds-checked Reader and zigzag varints: delta-of-delta timestamp
// encoding, Gorilla-style XOR float compression over a bitstream, and
// per-chunk string dictionaries.
//
// Every decoder is defensive: arbitrary input bytes must produce an error,
// never a panic or an unbounded allocation (FuzzCodec pins this). Counts
// read from the wire are validated against the bytes that must back them
// before anything is allocated.

package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"repro/internal/wire"
)

// ErrCorrupt is returned when encoded bytes fail validation (bad varint,
// impossible count, CRC mismatch, dictionary reference out of range).
var ErrCorrupt = errors.New("tsdb: corrupt data")

// ---- bitstream ----

type bitWriter struct {
	buf []byte
	cur byte
	n   uint // bits used in cur
}

// reset empties the stream, keeping its buffer.
func (w *bitWriter) reset() { w.buf, w.cur, w.n = w.buf[:0], 0, 0 }

// writeBits writes the low nb bits of v, most significant first, filling
// the current byte a run of bits at a time.
func (w *bitWriter) writeBits(v uint64, nb uint) {
	for nb > 0 {
		take := min(8-w.n, nb)
		nb -= take
		w.cur = w.cur<<take | byte(v>>nb)&(1<<take-1)
		w.n += take
		if w.n == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.n = 0, 0
		}
	}
}

// finish pads the final byte with zero bits and returns the stream.
func (w *bitWriter) finish() []byte {
	if w.n != 0 {
		w.buf = append(w.buf, w.cur<<(8-w.n))
		w.cur, w.n = 0, 0
	}
	return w.buf
}

type bitReader struct {
	buf  []byte
	off  int  // byte offset
	bit  uint // bits consumed from buf[off]
	fail bool
}

// readBits reads nb bits, most significant first; past the end it sets
// fail and returns 0.
func (r *bitReader) readBits(nb uint) uint64 {
	var v uint64
	for nb > 0 {
		if r.off >= len(r.buf) {
			r.fail = true
			return 0
		}
		take := min(8-r.bit, nb)
		v = v<<take | uint64(r.buf[r.off]<<r.bit>>(8-take))
		nb -= take
		r.bit += take
		if r.bit == 8 {
			r.bit = 0
			r.off++
		}
	}
	return v
}

// bitsLeft returns how many unread bits remain.
func (r *bitReader) bitsLeft() int {
	return (len(r.buf)-r.off)*8 - int(r.bit)
}

// ---- delta-of-delta timestamps ----

// timesEncode encodes timestamps as zigzag varints of the first value, the
// first delta, and then deltas-of-deltas. Regular sampling (the 5-second
// ping clock) collapses to one byte per timestamp after the first two.
func timesEncode(buf []byte, ts []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	var prev, prevDelta int64
	for i, t := range ts {
		switch i {
		case 0:
			buf = binary.AppendUvarint(buf, wire.Zigzag(t))
		case 1:
			prevDelta = t - prev
			buf = binary.AppendUvarint(buf, wire.Zigzag(prevDelta))
		default:
			d := t - prev
			buf = binary.AppendUvarint(buf, wire.Zigzag(d-prevDelta))
			prevDelta = d
		}
		prev = t
	}
	return buf
}

// timesDecode reads a timestamp block produced by timesEncode.
func timesDecode(r *wire.Reader) ([]int64, error) { return timesDecodeTo(nil, r) }

// timesDecodeTo is timesDecode into dst's storage.
func timesDecodeTo(dst []int64, r *wire.Reader) ([]int64, error) {
	n := r.Uvarint()
	// Each encoded timestamp costs at least one byte, so n is bounded by
	// the remaining payload; this rejects absurd counts before allocating.
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	out := resize(dst, int(n))
	var prev, prevDelta int64
	for i := range out {
		v := r.Varint()
		switch i {
		case 0:
			prev = v
		case 1:
			prevDelta = v
			prev += v
		default:
			prevDelta += v
			prev += prevDelta
		}
		out[i] = prev
	}
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	return out, nil
}

// ---- Gorilla XOR floats ----

// xorEncode compresses values with the Facebook Gorilla scheme: each value
// is XORed with its predecessor; a zero XOR costs one bit, and nonzero
// XORs reuse the previous leading/trailing-zero window when they fit.
// Surge multipliers (few distinct quantized values) and slowly drifting
// coordinates compress to a few bits each.
func xorEncode(buf []byte, vals []float64) []byte {
	var w bitWriter
	return w.appendXOR(buf, vals)
}

// appendXOR is xorEncode with w as the reusable bitstream buffer.
func (w *bitWriter) appendXOR(buf []byte, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	w.reset()
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	lz, tz := -1, -1 // current window; -1 = none yet
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := prev ^ cur
		prev = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		w.writeBits(1, 1)
		l := bits.LeadingZeros64(x)
		if l > 31 {
			l = 31 // 5-bit field
		}
		t := bits.TrailingZeros64(x)
		if lz >= 0 && l >= lz && t >= tz {
			w.writeBits(0, 1)
			w.writeBits(x>>uint(tz), uint(64-lz-tz))
			continue
		}
		w.writeBits(1, 1)
		m := 64 - l - t
		w.writeBits(uint64(l), 5)
		w.writeBits(uint64(m-1), 6)
		w.writeBits(x>>uint(t), uint(m))
		lz, tz = l, t
	}
	stream := w.finish()
	buf = binary.AppendUvarint(buf, uint64(len(stream)))
	return append(buf, stream...)
}

// xorDecode reads a float block produced by xorEncode.
func xorDecode(r *wire.Reader) ([]float64, error) { return xorDecodeTo(nil, r) }

// xorDecodeTo is xorDecode into dst's storage.
func xorDecodeTo(dst []float64, r *wire.Reader) ([]float64, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return dst[:0], nil
	}
	streamLen := r.Uvarint()
	if r.Err() != nil || streamLen > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	br := bitReader{buf: r.Take(int(streamLen))}
	// The first value costs 64 bits and every later one at least 1.
	if int64(br.bitsLeft()) < 64+int64(n-1) {
		return nil, ErrCorrupt
	}
	out := resize(dst, int(n))
	prev := br.readBits(64)
	out[0] = math.Float64frombits(prev)
	lz, tz := -1, -1
	for i := uint64(1); i < n; i++ {
		if br.readBits(1) == 0 {
			out[i] = math.Float64frombits(prev)
			continue
		}
		if br.readBits(1) == 0 {
			if lz < 0 {
				return nil, ErrCorrupt // window reuse before any window set
			}
			x := br.readBits(uint(64-lz-tz)) << uint(tz)
			prev ^= x
		} else {
			l := int(br.readBits(5))
			m := int(br.readBits(6)) + 1
			t := 64 - l - m
			if t < 0 {
				return nil, ErrCorrupt
			}
			x := br.readBits(uint(m)) << uint(t)
			prev ^= x
			lz, tz = l, t
		}
		if br.fail {
			return nil, ErrCorrupt
		}
		out[i] = math.Float64frombits(prev)
	}
	if br.fail {
		return nil, ErrCorrupt
	}
	return out, nil
}

// ---- string dictionary ----

// dictBuilder assigns dense ids to strings in first-seen order. Car/session
// ids repeat across every round a car stays visible, so a per-chunk
// dictionary turns ~16-byte ids into 1-2 byte references.
type dictBuilder struct {
	ids  map[string]uint64
	strs []string
}

// reset empties the dictionary, keeping its map and slice.
func (d *dictBuilder) reset() {
	clear(d.ids)
	d.strs = d.strs[:0]
}

func (d *dictBuilder) id(s string) uint64 {
	if d.ids == nil {
		d.ids = make(map[string]uint64)
	}
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint64(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

func (d *dictBuilder) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.strs)))
	for _, s := range d.strs {
		buf = wire.AppendString(buf, s)
	}
	return buf
}

func dictDecode(r *wire.Reader) ([]string, error) { return dictDecodeTo(nil, r) }

// dictDecodeTo is dictDecode into dst's storage; the strings themselves
// are always fresh.
func dictDecodeTo(dst []string, r *wire.Reader) ([]string, error) {
	n := r.Uvarint()
	// Every dictionary entry costs at least one byte (its length prefix).
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	strs := resize(dst, int(n))
	for i := range strs {
		strs[i] = r.String(maxStringLen)
	}
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	return strs, nil
}

func dictRef(strs []string, id uint64) (string, error) {
	if id >= uint64(len(strs)) {
		return "", ErrCorrupt
	}
	return strs[id], nil
}

// resize returns s with length n, reusing its storage when it is large
// enough. The elements are stale; callers overwrite all n.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// grow is resize for lengths that creep up from call to call: storage it
// has to replace grows by at least a quarter. (slices.Grow would do, but
// under the race detector its append of a make allocates twice.)
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, cap(s)+cap(s)/4))
	}
	return s[:n]
}
