package tsdb

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// FuzzCodec exercises every decoder in the codec stack with arbitrary
// bytes. Invariants:
//
//   - no decoder may panic or over-allocate, whatever the input;
//   - any input decodeRowBinary accepts must re-encode to the exact same
//     bytes (the row codec is canonical);
//   - any input decodeChunk accepts must survive encode→decode unchanged,
//     and a window of it must build the rows inWindow keeps of the whole.
//
// The first byte routes to a decoder so one target covers the whole stack
// (the CI fuzz step runs a single -fuzz=FuzzCodec pattern).
func FuzzCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	rows := randomRows(rng, 3, 64, 0)
	f.Add(append([]byte{0}, encodeChunk(rows)...))
	f.Add(append([]byte{1}, appendRowBinary(nil, &rows[0])...))
	f.Add(append([]byte{2}, timesEncode(nil, []int64{0, 5, 10, 15})...))
	f.Add(append([]byte{3}, xorEncode(nil, []float64{1.0, 1.1, 1.1})...))
	var d dictBuilder
	d.id("UberX")
	d.id("car-1")
	f.Add(append([]byte{4}, d.encode(nil)...))
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		op, payload := data[0], data[1:]
		switch op % 5 {
		case 0:
			got, err := decodeChunk(payload, 3)
			if err != nil {
				return
			}
			re := encodeChunk(got)
			back, err := decodeChunk(re, 3)
			if err != nil {
				t.Fatalf("re-encoded chunk failed to decode: %v", err)
			}
			if len(back) != len(got) {
				t.Fatalf("chunk re-encode changed row count: %d != %d", len(back), len(got))
			}
			var a, b []byte
			for i := range got {
				a = appendRowBinary(a[:0], &got[i])
				b = appendRowBinary(b[:0], &back[i])
				if string(a) != string(b) {
					t.Fatalf("chunk re-encode changed row %d", i)
				}
			}
			// A window whose edges the input's last two bytes pick (a row's
			// stamp, or one past it) builds the rows inWindow keeps.
			edge := func(b byte) int64 {
				if len(got) == 0 {
					return int64(b)
				}
				return got[int(b>>1)%len(got)].Time + int64(b&1)
			}
			from, to := edge(data[len(data)-2]), edge(data[len(data)-1])
			var d chunkDecoder
			if err := d.decode(payload, 3); err != nil {
				t.Fatalf("window decode rejected an accepted chunk: %v", err)
			}
			win, want := windowRows(&d, from, to), inWindow(got, from, to)
			if len(win) != len(want) {
				t.Fatalf("window [%d, %d) built %d rows, inWindow keeps %d", from, to, len(win), len(want))
			}
			for i := range win {
				a = appendRowBinary(a[:0], &win[i])
				b = appendRowBinary(b[:0], &want[i])
				if string(a) != string(b) {
					t.Fatalf("window [%d, %d) row %d differs from the full decode", from, to, i)
				}
			}
		case 1:
			row, err := decodeRowBinary(payload)
			if err != nil {
				return
			}
			if re := appendRowBinary(nil, &row); string(re) != string(payload) {
				t.Fatalf("row codec not canonical:\n in %x\nout %x", payload, re)
			}
		case 2:
			r := wire.NewReader(payload)
			if ts, err := timesDecode(r); err == nil && len(ts) > 0 {
				re := timesEncode(nil, ts)
				if got, err := timesDecode(wire.NewReader(re)); err != nil || len(got) != len(ts) {
					t.Fatalf("times re-encode broke: %v", err)
				}
			}
		case 3:
			r := wire.NewReader(payload)
			if vs, err := xorDecode(r); err == nil && len(vs) > 0 {
				re := xorEncode(nil, vs)
				if got, err := xorDecode(wire.NewReader(re)); err != nil || len(got) != len(vs) {
					t.Fatalf("xor re-encode broke: %v", err)
				}
			}
		case 4:
			dictDecode(wire.NewReader(payload))
		}
	})
}
