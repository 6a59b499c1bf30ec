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

func (w *bitWriter) writeBit(b uint64) {
	w.cur = w.cur<<1 | byte(b&1)
	w.n++
	if w.n == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.n = 0, 0
	}
}

// writeBits writes the low nb bits of v, most significant first.
func (w *bitWriter) writeBits(v uint64, nb uint) {
	for i := int(nb) - 1; i >= 0; i-- {
		w.writeBit(v >> uint(i))
	}
}

// finish pads the final byte with zero bits and returns the stream.
func (w *bitWriter) finish() []byte {
	for w.n != 0 {
		w.writeBit(0)
	}
	return w.buf
}

type bitReader struct {
	buf  []byte
	off  int  // byte offset
	bit  uint // bits consumed from buf[off]
	fail bool
}

func (r *bitReader) readBit() uint64 {
	if r.fail || r.off >= len(r.buf) {
		r.fail = true
		return 0
	}
	b := uint64(r.buf[r.off]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.off++
	}
	return b
}

func (r *bitReader) readBits(nb uint) uint64 {
	var v uint64
	for i := uint(0); i < nb; i++ {
		v = v<<1 | r.readBit()
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
func timesDecode(r *wire.Reader) ([]int64, error) {
	n := r.Uvarint()
	// Each encoded timestamp costs at least one byte, so n is bounded by
	// the remaining payload; this rejects absurd counts before allocating.
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	out := make([]int64, n)
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
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	w := bitWriter{}
	prev := math.Float64bits(vals[0])
	w.writeBits(prev, 64)
	lz, tz := -1, -1 // current window; -1 = none yet
	for _, v := range vals[1:] {
		cur := math.Float64bits(v)
		x := prev ^ cur
		prev = cur
		if x == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		l := bits.LeadingZeros64(x)
		if l > 31 {
			l = 31 // 5-bit field
		}
		t := bits.TrailingZeros64(x)
		if lz >= 0 && l >= lz && t >= tz {
			w.writeBit(0)
			w.writeBits(x>>uint(tz), uint(64-lz-tz))
			continue
		}
		w.writeBit(1)
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
func xorDecode(r *wire.Reader) ([]float64, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
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
	out := make([]float64, n)
	prev := br.readBits(64)
	out[0] = math.Float64frombits(prev)
	lz, tz := -1, -1
	for i := uint64(1); i < n; i++ {
		if br.readBit() == 0 {
			out[i] = math.Float64frombits(prev)
			continue
		}
		if br.readBit() == 0 {
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

func dictDecode(r *wire.Reader) ([]string, error) {
	n := r.Uvarint()
	// Every dictionary entry costs at least one byte (its length prefix).
	if r.Err() != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	strs := make([]string, n)
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
