package tsdb

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func TestTimesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]int64{
		nil,
		{0},
		{42},
		{-7, -7, -7},
		{0, 5, 10, 15, 20}, // the ping clock: constant delta
		{100, 95, 200, 200, 201},
	}
	irregular := []int64{rng.Int63n(1000)}
	for i := 0; i < 500; i++ {
		irregular = append(irregular, irregular[len(irregular)-1]+rng.Int63n(100)-20)
	}
	cases = append(cases, irregular)
	for _, ts := range cases {
		buf := timesEncode(nil, ts)
		got, err := timesDecode(wire.NewReader(buf))
		if err != nil {
			t.Fatalf("decode %v: %v", ts, err)
		}
		if len(got) == 0 && len(ts) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ts) {
			t.Fatalf("times round trip: got %v want %v", got, ts)
		}
	}
	// Constant-delta series must approach one byte per timestamp.
	clock := make([]int64, 1000)
	for i := range clock {
		clock[i] = int64(i) * 5
	}
	buf := timesEncode(nil, clock)
	if len(buf) > 1100 {
		t.Fatalf("5s clock encoded to %d bytes for 1000 stamps; want ~1/stamp", len(buf))
	}
}

func TestXORRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][]float64{
		nil,
		{0},
		{1.5},
		{1, 1, 1, 1},
		{1.0, 1.1, 1.2, 1.2, 1.1, 2.5},
		{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)},
	}
	var walk []float64
	v := 37.7749
	for i := 0; i < 700; i++ {
		v += (rng.Float64() - 0.5) * 1e-3
		walk = append(walk, v)
	}
	cases = append(cases, walk)
	for ci, vals := range cases {
		buf := xorEncode(nil, vals)
		got, err := xorDecode(wire.NewReader(buf))
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("case %d: got %d values, want %d", ci, len(got), len(vals))
		}
		for i := range vals {
			// Bit-level equality: NaN payloads and signed zeros must survive.
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("case %d: value %d: got %x want %x",
					ci, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	}
	// Identical values (a flat surge column) must cost ~1 bit each.
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = 1.0
	}
	buf := xorEncode(nil, flat)
	if len(buf) > 200 {
		t.Fatalf("flat column encoded to %d bytes for 1000 values", len(buf))
	}
}

func TestDictRoundTrip(t *testing.T) {
	var d dictBuilder
	ids := []uint64{d.id("UberX"), d.id("car-1"), d.id("UberX"), d.id(""), d.id("car-1")}
	want := []uint64{0, 1, 0, 2, 1}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("dict ids = %v, want %v", ids, want)
	}
	buf := d.encode(nil)
	strs, err := dictDecode(wire.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(strs, []string{"UberX", "car-1", ""}) {
		t.Fatalf("decoded dict = %q", strs)
	}
	if _, err := dictRef(strs, 3); err == nil {
		t.Fatal("out-of-range dict ref did not error")
	}
}

// randomRows builds a plausible campaign slice for one series: mostly
// observations with a few products and moving cars, some gaps.
func randomRows(rng *rand.Rand, series, n int, start int64) []Row {
	rows := make([]Row, 0, n)
	t := start
	lat, lng := 37.77, -122.42
	for i := 0; i < n; i++ {
		t += 5
		if rng.Intn(40) == 0 {
			rows = append(rows, Row{Time: t, Series: series, Gap: true, Reason: "http 503"})
			continue
		}
		row := Row{Time: t, Series: series}
		for p := 0; p < 1+rng.Intn(4); p++ {
			obs := TypeObs{
				Name:  []string{"UberX", "UberXL", "UberBLACK", "UberSUV"}[p],
				Surge: 1 + float64(rng.Intn(15))*0.1,
				EWT:   float64(100 + rng.Intn(400)),
			}
			for c := 0; c < rng.Intn(9); c++ {
				lat += (rng.Float64() - 0.5) * 1e-4
				lng += (rng.Float64() - 0.5) * 1e-4
				obs.Cars = append(obs.Cars, Car{
					ID:  []string{"a1f", "b2e", "c3d", "d4c", "e5b", "f6a", "07f", "18e"}[c],
					Lat: lat, Lng: lng,
				})
			}
			row.Types = append(row.Types, obs)
		}
		rows = append(rows, row)
	}
	return rows
}

func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 7, 400, 1000)
	payload := encodeChunk(rows)
	got, err := decodeChunk(payload, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("chunk round trip mismatch: got %d rows want %d", len(got), len(rows))
	}
	// Byte-equality through the canonical row encoding.
	for i := range rows {
		a := appendRowBinary(nil, &rows[i])
		b := appendRowBinary(nil, &got[i])
		if string(a) != string(b) {
			t.Fatalf("row %d not byte-equal after chunk round trip", i)
		}
	}
}

// TestChunkDecodeNeverPanics flips/truncates chunk bytes every which way;
// decode must return an error or a valid result, never panic.
func TestChunkDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, 0, 60, 0)
	payload := encodeChunk(rows)
	for i := 0; i < len(payload); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), payload...)
			mut[i] ^= bit
			decodeChunk(mut, 0) // must not panic
		}
	}
	for i := 0; i < len(payload); i += 7 {
		decodeChunk(payload[:i], 0)
	}
}

func TestRowBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, row := range randomRows(rng, 11, 100, 50) {
		buf := appendRowBinary(nil, &row)
		got, err := decodeRowBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("row binary round trip mismatch:\n got %+v\nwant %+v", got, row)
		}
	}
	if _, err := decodeRowBinary([]byte{0x80}); err == nil {
		t.Fatal("truncated row decoded without error")
	}
}
