package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"repro/internal/geo"
)

// PingEncoder writes a /pingClient body with exactly the bytes
// json.NewEncoder(w).Encode(resp) writes for the *PingResponse it describes,
// trailing newline included, when that response has non-nil Types and Cars
// (which is what the service serves). The struct tags on PingResponse,
// TypeStatus, CarView and geo.LatLng are the contract, as for DecodePing.
//
// It is fed in document order — Begin, then per product Type, Car for each
// car and EndType, then End — and appends to one buffer that Reset keeps,
// so a warm encoder allocates nothing. A value encoding/json refuses (NaN or
// ±Inf) makes End return encoding/json's error for the first such value.
type PingEncoder struct {
	b   []byte
	err error
}

// Reset empties the encoder, keeping its buffer.
func (e *PingEncoder) Reset() { e.b, e.err = e.b[:0], nil }

// Cap is the capacity of the encoder's buffer.
func (e *PingEncoder) Cap() int { return cap(e.b) }

// Begin opens the body of the ping served at time.
func (e *PingEncoder) Begin(time int64) {
	e.b = append(e.b, `{"time":`...)
	e.b = strconv.AppendInt(e.b, time, 10)
	e.b = append(e.b, `,"types":[`...)
}

// Type opens one product's section, up to its car list.
func (e *PingEncoder) Type(name string) {
	e.comma()
	e.b = append(e.b, `{"type":`...)
	e.b = appendString(e.b, name)
	e.b = append(e.b, `,"cars":[`...)
}

// Car appends one car of the open section. An empty path is omitted, as
// the omitempty tag has it.
func (e *PingEncoder) Car(id string, pos geo.LatLng, path []geo.LatLng) {
	e.comma()
	e.b = append(e.b, `{"id":`...)
	e.b = appendString(e.b, id)
	e.b = append(e.b, `,"pos":`...)
	e.point(pos)
	if len(path) > 0 {
		e.b = append(e.b, `,"path":[`...)
		for i, p := range path {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.point(p)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// EndType closes the open section with its wait time and multiplier.
func (e *PingEncoder) EndType(ewt, surge float64) {
	e.b = append(e.b, `],"ewt_seconds":`...)
	e.float(ewt)
	e.b = append(e.b, `,"surge":`...)
	e.float(surge)
	e.b = append(e.b, '}')
}

// End closes the body and returns it, or the first error a value raised.
// The bytes are the encoder's until its next Reset.
func (e *PingEncoder) End() ([]byte, error) {
	e.b = append(e.b, "]}\n"...)
	return e.b, e.err
}

// comma separates a list element from the one before it: an element
// follows an element, never the `[` that opens its list.
func (e *PingEncoder) comma() {
	if e.b[len(e.b)-1] != '[' {
		e.b = append(e.b, ',')
	}
}

func (e *PingEncoder) point(p geo.LatLng) {
	e.b = append(e.b, `{"lat":`...)
	e.float(p.Lat)
	e.b = append(e.b, `,"lng":`...)
	e.float(p.Lng)
	e.b = append(e.b, '}')
}

func (e *PingEncoder) float(f float64) {
	var err error
	if e.b, err = appendFloat(e.b, f); err != nil && e.err == nil {
		e.err = err
	}
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in 'f' format unless |f| < 1e-6 or |f| >= 1e21,
// where it is 'e' with a two-digit negative exponent cut to one (1e-07 is
// written 1e-7). NaN and ±Inf are encoding/json's UnsupportedValueError.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string the way encoding/json does: a
// string of printable ASCII without `"`, `\` or the HTML-unsafe <, > and &
// (every product name and car ID) is copied between quotes, and any other
// goes to json.Marshal, which escapes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
