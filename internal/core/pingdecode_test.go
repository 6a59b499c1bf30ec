package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geo"
)

// canonicalPing is the shape of a rush-hour Manhattan ping: every product,
// eight cars each, a five-point path behind every car (9 / 72 / 360).
func canonicalPing() *PingResponse {
	resp := &PingResponse{Time: 54300}
	for _, vt := range AllVehicleTypes() {
		ts := TypeStatus{Type: vt, TypeName: vt.String(), EWTSeconds: 123.45678 + float64(vt), Surge: 1 + float64(vt)/10}
		for c := 0; c < MaxVisibleCars; c++ {
			k := float64(int(vt)*MaxVisibleCars + c)
			car := CarView{
				ID:  fmt.Sprintf("c%08x%08x", int(vt)*7919+c, c*104729+int(vt)),
				Pos: geo.LatLng{Lat: 40.7549 + k/9973, Lng: -73.984 - k/7919},
			}
			for p := 1; p <= 5; p++ {
				car.Path = append(car.Path, geo.LatLng{Lat: car.Pos.Lat - float64(p)/65521, Lng: car.Pos.Lng + float64(p)/32749})
			}
			ts.Cars = append(ts.Cars, car)
		}
		resp.Types = append(resp.Types, ts)
	}
	return resp
}

// encode is the server's side of the wire: api.WriteJSON runs this encoder.
func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// samePing is reflect.DeepEqual with floats compared by bit pattern, so -0
// against 0 is a difference.
func samePing(a, b *PingResponse) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	same := func(p, q geo.LatLng) bool {
		return math.Float64bits(p.Lat) == math.Float64bits(q.Lat) && math.Float64bits(p.Lng) == math.Float64bits(q.Lng)
	}
	for i := range a.Types {
		x, y := &a.Types[i], &b.Types[i]
		if math.Float64bits(x.EWTSeconds) != math.Float64bits(y.EWTSeconds) || math.Float64bits(x.Surge) != math.Float64bits(y.Surge) {
			return false
		}
		for j := range x.Cars {
			if !same(x.Cars[j].Pos, y.Cars[j].Pos) {
				return false
			}
			for k := range x.Cars[j].Path {
				if !same(x.Cars[j].Path[k], y.Cars[j].Path[k]) {
					return false
				}
			}
		}
	}
	return true
}

// checkAgainstJSON decodes body both ways and fails on any disagreement: on
// whether it is an error, and on the value either leaves behind. It reports
// whether the fast grammar took the body.
func checkAgainstJSON(t testing.TB, body []byte) (fast bool) {
	t.Helper()
	var want, got PingResponse
	wantErr := json.Unmarshal(body, &want)
	// A used out must not show through: DecodePing promises a zero out's result.
	got = PingResponse{Time: -1, Types: make([]TypeStatus, 3)}
	fast, gotErr := DecodePing(body, &got)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("DecodePing error %v, json.Unmarshal error %v\nbody: %q", gotErr, wantErr, body)
	}
	if !samePing(&got, &want) {
		t.Fatalf("DecodePing (fast=%v) and json.Unmarshal disagree\n got %+v\nwant %+v\nbody: %q", fast, got, want, body)
	}
	if fast && gotErr != nil {
		t.Fatalf("the fast path returned an error: %v", gotErr)
	}
	return fast
}

// fastBodies are in the grammar our server emits: each must decode without
// the delegate.
func fastBodies(t testing.TB) map[string][]byte {
	noPath := canonicalPing()
	noPath.Types = noPath.Types[:2]
	noPath.Types[0].Cars[3].Path = nil
	noPath.Types[1].Cars = []CarView{}
	nullCars := &PingResponse{Time: 7, Types: []TypeStatus{{TypeName: "uberT", Surge: 1}}}
	return map[string][]byte{
		"canonical":         encode(t, canonicalPing()),
		"no path, no cars":  encode(t, noPath),
		"cars null":         encode(t, nullCars),
		"types null":        encode(t, &PingResponse{Time: 600}),
		"types empty":       encode(t, &PingResponse{Time: -5, Types: []TypeStatus{}}),
		"unknown product":   []byte(`{"time":1,"types":[{"type":"uberCOPTER","cars":[],"ewt_seconds":0,"surge":1}]}`),
		"exponents and -0":  []byte(`{"time":-0,"types":[{"type":"uberX","cars":[{"id":"a","pos":{"lat":-0,"lng":1e2}}],"ewt_seconds":1.5E-3,"surge":-0.0e+0}]}`),
		"underflow":         []byte(`{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":1e-999,"surge":4.9e-324}]}`),
		"raw html id":       []byte(`{"time":1,"types":[{"type":"uberX","cars":[{"id":"<b>&'","pos":{"lat":1,"lng":2}}],"ewt_seconds":0,"surge":1}]}`),
		"empty id":          []byte(`{"time":1,"types":[{"type":"","cars":[{"id":"","pos":{"lat":0,"lng":0}}],"ewt_seconds":0,"surge":0}]}`),
		"space after value": []byte("{\"time\":1,\"types\":null} \t\r\n"),
	}
}

// delegatedBodies are outside it; json.Unmarshal's answer, value or error,
// must come back unchanged.
var delegatedBodies = map[string]string{
	"reordered keys":     `{"types":null,"time":1}`,
	"reordered car":      `{"time":1,"types":[{"type":"uberX","cars":[{"pos":{"lat":1,"lng":2},"id":"a"}],"ewt_seconds":0,"surge":1}]}`,
	"unknown key":        `{"time":1,"types":null,"extra":[1,{"a":"b"}]}`,
	"duplicate key":      `{"time":1,"time":2,"types":null}`,
	"case-variant key":   `{"Time":1,"TYPES":[{"Type":"uberX","cars":null,"ewt_seconds":0,"surge":1}]}`,
	"inner whitespace":   `{"time": 1, "types": null}`,
	"leading whitespace": ` {"time":1,"types":null}`,
	"escaped id":         `{"time":1,"types":[{"type":"uberX","cars":[{"id":"a\"b\\c\né","pos":{"lat":1,"lng":2}}],"ewt_seconds":0,"surge":1}]}`,
	"html id":            `{"time":1,"types":[{"type":"uberX","cars":[{"id":"\u003cb\u003e\u0026","pos":{"lat":1,"lng":2}}],"ewt_seconds":0,"surge":1}]}`,
	"u+2028 id":          `{"time":1,"types":[{"type":"uberX","cars":[{"id":"a\u2028b","pos":{"lat":1,"lng":2}}],"ewt_seconds":0,"surge":1}]}`,
	"raw u+2028 id":      "{\"time\":1,\"types\":[{\"type\":\"uberX\",\"cars\":[{\"id\":\"a\xe2\x80\xa8b\",\"pos\":{\"lat\":1,\"lng\":2}}],\"ewt_seconds\":0,\"surge\":1}]}",
	"non-ascii product":  `{"time":1,"types":[{"type":"überX","cars":null,"ewt_seconds":0,"surge":1}]}`,
	"invalid utf-8 id":   "{\"time\":1,\"types\":[{\"type\":\"uberX\",\"cars\":[{\"id\":\"a\xffb\xc3\",\"pos\":{\"lat\":1,\"lng\":2}}],\"ewt_seconds\":0,\"surge\":1}]}",
	"control byte in id": "{\"time\":1,\"types\":[{\"type\":\"uberX\",\"cars\":[{\"id\":\"a\x01b\",\"pos\":{\"lat\":1,\"lng\":2}}],\"ewt_seconds\":0,\"surge\":1}]}",
	"empty path":         `{"time":1,"types":[{"type":"uberX","cars":[{"id":"a","pos":{"lat":1,"lng":2},"path":[]}],"ewt_seconds":0,"surge":1}]}`,
	"null path":          `{"time":1,"types":[{"type":"uberX","cars":[{"id":"a","pos":{"lat":1,"lng":2},"path":null}],"ewt_seconds":0,"surge":1}]}`,
	"fractional time":    `{"time":1.5,"types":null}`,
	"exponent time":      `{"time":1e3,"types":null}`,
	"time overflow":      `{"time":9223372036854775808,"types":null}`,
	"float overflow":     `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":1e999,"surge":1}]}`,
	"leading zero":       `{"time":01,"types":null}`,
	"bare minus":         `{"time":-,"types":null}`,
	"plus sign":          `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":+1,"surge":1}]}`,
	"no integer part":    `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":.5,"surge":1}]}`,
	"no fraction digits": `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":5.,"surge":1}]}`,
	"hex float":          `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":0x1p-2,"surge":1}]}`,
	"infinity":           `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":Inf,"surge":1}]}`,
	"trailing comma":     `{"time":1,"types":[{"type":"uberX","cars":null,"ewt_seconds":0,"surge":1},]}`,
	"trailing car comma": `{"time":1,"types":[{"type":"uberX","cars":[{"id":"a","pos":{"lat":1,"lng":2}},],"ewt_seconds":0,"surge":1}]}`,
	"trailing garbage":   `{"time":1,"types":null}x`,
	"second value":       `{"time":1,"types":null}{"time":2,"types":null}`,
	"string for number":  `{"time":"1","types":null}`,
	"null document":      `null`,
	"empty":              ``,
	"array document":     `[]`,
}

func TestDecodePingMatchesJSON(t *testing.T) {
	for name, body := range fastBodies(t) {
		if !checkAgainstJSON(t, body) {
			t.Errorf("%s: a body in the server's own shape went to the delegate: %q", name, body)
		}
	}
	for name, body := range delegatedBodies {
		if checkAgainstJSON(t, []byte(body)) {
			t.Errorf("%s: the fast grammar took a body it should decline: %q", name, body)
		}
	}
	// What the product name is rebuilt from is not a copy of the wire bytes
	// for a known product (no allocation), and is equal all the same.
	var got PingResponse
	if _, err := DecodePing(encode(t, canonicalPing()), &got); err != nil {
		t.Fatal(err)
	}
	want := canonicalPing()
	for i := range got.Types {
		vt, err := ParseVehicleType(got.Types[i].TypeName)
		if err != nil {
			t.Fatal(err)
		}
		got.Types[i].Type = vt
	}
	if !samePing(&got, want) {
		t.Errorf("decode of the canonical body with Type rebuilt differs from what was encoded")
	}
}

// Every truncation of a real body is an error both ways (short reads are
// what Remote retries), and never a panic.
func TestDecodePingTruncated(t *testing.T) {
	body := encode(t, canonicalPing())
	body = body[:len(body)-1] // the encoder's newline: without it the value is still whole
	for n := 0; n < len(body); n += 1 + n/64 {
		var got PingResponse
		if fast, err := DecodePing(body[:n], &got); fast || err == nil {
			t.Fatalf("prefix of %d bytes decoded (fast=%v, err=%v)", n, fast, err)
		}
	}
}

// The result owns its memory: the source is a pooled buffer the next request
// overwrites, and sub-slices are capped so that an append to one car's path
// or one product's cars cannot run into its neighbour's.
func TestDecodePingDoesNotAliasSource(t *testing.T) {
	src := encode(t, canonicalPing())
	var got, want PingResponse
	if fast, err := DecodePing(src, &got); !fast || err != nil {
		t.Fatalf("fast=%v err=%v", fast, err)
	}
	if err := json.Unmarshal(bytes.Clone(src), &want); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		src[i] = 'x'
	}
	if !samePing(&got, &want) {
		t.Fatal("the decoded ping changed when its source buffer was overwritten")
	}
	for i := range got.Types {
		cars := got.Types[i].Cars
		if len(cars) != cap(cars) {
			t.Fatalf("product %d: cars len %d cap %d", i, len(cars), cap(cars))
		}
		for j := range cars {
			if p := cars[j].Path; len(p) != cap(p) {
				t.Fatalf("product %d car %d: path len %d cap %d", i, j, len(p), cap(p))
			}
		}
	}
	got.Types[0].Cars = append(got.Types[0].Cars, CarView{ID: "intruder"})
	got.Types[0].Cars[0].Path = append(got.Types[0].Cars[0].Path, geo.LatLng{Lat: 1})
	if !reflect.DeepEqual(got.Types[1], want.Types[1]) || !reflect.DeepEqual(got.Types[0].Cars[1], want.Types[0].Cars[1]) {
		t.Fatal("an append to one sub-slice overwrote its neighbour in the slab")
	}
}

// The tier-1 allocation pin of the client's read path: a canonical ping is
// four slabs (types, cars, path points, IDs), about 12 kB. encoding/json
// needs 431 objects and 93 kB for the same body.
func TestDecodePingAllocBudget(t *testing.T) {
	const maxObjects, maxBytes = 6, 16 << 10
	body := encode(t, canonicalPing())
	var out PingResponse
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, func() {
		if fast, err := DecodePing(body, &out); !fast || err != nil {
			t.Fatalf("fast=%v err=%v", fast, err)
		}
	})
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	t.Logf("%d B body: %.0f objects, %.0f B per decode", len(body), objects, perRun)
	if objects > maxObjects || perRun > maxBytes {
		t.Errorf("decode of the canonical ping allocates %.0f objects / %.0f B, budget %d / %d", objects, perRun, maxObjects, maxBytes)
	}
}

// FuzzPingDecode: for arbitrary bytes DecodePing and json.Unmarshal agree on
// error-or-not and on the value.
func FuzzPingDecode(f *testing.F) {
	for _, body := range fastBodies(f) {
		f.Add(body)
	}
	for _, body := range delegatedBodies {
		f.Add([]byte(body))
	}
	small := canonicalPing()
	small.Types = small.Types[:2]
	body := encode(f, small)
	for n := 0; n < len(body); n += 1 + n/16 {
		f.Add(body[:n])
	}
	f.Add([]byte(strings.Repeat(`{"time":1,"types":[`, 64)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstJSON(t, body)
	})
}

func BenchmarkDecodePing(b *testing.B) {
	body := encode(b, canonicalPing())
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var out PingResponse
		for i := 0; i < b.N; i++ {
			if fast, err := DecodePing(body, &out); !fast || err != nil {
				b.Fatalf("fast=%v err=%v", fast, err)
			}
		}
	})
	b.Run("encoding/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out PingResponse
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
