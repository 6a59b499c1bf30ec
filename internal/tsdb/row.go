// The row model: one observation of one series (campaign client) at one
// timestamp, plus the flat binary encoding used by the write-ahead log.
// The WAL favors encode speed and self-delimiting robustness over size;
// the columnar chunk codec (block.go) is where compression happens.

package tsdb

import (
	"encoding/binary"
	"math"

	"repro/internal/wire"
)

// Sanity caps applied when decoding untrusted bytes. Real campaign rows
// carry ≤ 9 products × ≤ 8 cars; the caps are generous multiples so a
// corrupt length prefix cannot drive an unbounded allocation. Strings
// have no cap of their own: a row or chunk is already bounded by the
// frame that carries it, and a string by the bytes left in it.
const (
	maxTypesPerRow = 256
	maxCarsPerType = 4096
	maxRowsPerWAL  = 1 << 24
	maxStringLen   = math.MaxInt32
)

// The stored observation body is shared with the event bus (package wire
// owns its codec).
type (
	TypeObs = wire.TypeObs
	Car     = wire.Car
)

// Row is one stored observation. A Gap row records a failed ping (an
// explicit hole in the campaign) and carries Reason instead of Types.
type Row struct {
	Time   int64
	Series int
	Types  []TypeObs
	Gap    bool
	Reason string
}

// appendRowBinary appends the flat encoding of r. It is the WAL record
// payload and also the byte-equality witness used by tests: two rows are
// identical iff their encodings are.
func appendRowBinary(buf []byte, r *Row) []byte {
	buf = binary.AppendUvarint(buf, wire.Zigzag(r.Time))
	buf = binary.AppendUvarint(buf, uint64(r.Series))
	if r.Gap {
		buf = append(buf, 1)
		return wire.AppendString(buf, r.Reason)
	}
	buf = append(buf, 0)
	return wire.AppendTypes(buf, r.Types)
}

// decodeRowBinary decodes one row from data, which must contain exactly
// one encoded row (WAL records are length-prefixed externally).
func decodeRowBinary(data []byte) (Row, error) {
	r := wire.NewReader(data)
	var row Row
	row.Time = r.Varint()
	series := r.Uvarint()
	if series > math.MaxInt32 {
		return Row{}, ErrCorrupt
	}
	row.Series = int(series)
	switch r.Byte() {
	case 1:
		row.Gap = true
		row.Reason = r.String(maxStringLen)
	case 0:
		row.Types = r.Types(maxTypesPerRow, maxCarsPerType, maxStringLen)
	default:
		// Only 0/1 are valid: the encoding must stay canonical (tests use
		// it as a byte-equality witness).
		return Row{}, ErrCorrupt
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return Row{}, ErrCorrupt
	}
	return row, nil
}
