package core

import (
	"encoding/json"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// DecodePing decodes a /pingClient body into out with exactly the result
// json.Unmarshal(body, out) gives for a zero out: the struct tags above
// (PingResponse, TypeStatus, CarView, geo.LatLng) are the contract, this is
// only a cheaper way to honour it.
//
// A body in the one shape our own server emits — the keys in struct order, no
// whitespace but after the value, plain ASCII strings without escapes — is
// walked twice: once to validate it and count what it holds, once to fill a
// []TypeStatus, one []CarView slab, one []geo.LatLng slab for every path and
// one string slab for every car ID, each allocated at its final size and
// handed out in capped sub-slices. Nothing in out points into body.
//
// Any other input (escapes, non-ASCII, unknown, reordered, duplicate or
// case-variant keys, inner whitespace, "path":[] or null, a number that does
// not fit, a truncated or garbled body) is not judged here: it goes, whole,
// to json.Unmarshal, whose value or error is the answer. fast reports which
// of the two decoded the body, so a caller can count how often the delegate
// runs; the bytes alone choose, there is nothing to configure.
func DecodePing(body []byte, out *PingResponse) (fast bool, err error) {
	d := pingParser{b: body}
	if _, ok := d.ping(); ok {
		d.alloc()
		if resp, ok := d.ping(); ok {
			*out = resp
			return true, nil
		}
	}
	*out = PingResponse{}
	return false, json.Unmarshal(body, out)
}

// pingParser is one walk over a ping body. The first walk (fill false) only
// checks the grammar and counts; alloc sizes the slabs from the counts and
// rewinds; the second walk (fill true) parses the numbers and stores, with
// the same counters as its cursors into the slabs. A walk that returns false
// anywhere has declined the body; nothing it built is used.
type pingParser struct {
	b    []byte
	i    int
	fill bool

	nTypes, nCars, nPts, idLen int

	types []TypeStatus
	cars  []CarView
	pts   []geo.LatLng
	ids   strings.Builder
}

func (d *pingParser) alloc() {
	d.types = make([]TypeStatus, d.nTypes)
	d.cars = make([]CarView, d.nCars)
	d.pts = make([]geo.LatLng, d.nPts)
	d.ids.Grow(d.idLen)
	d.i, d.nTypes, d.nCars, d.nPts, d.fill = 0, 0, 0, 0, true
}

// lit consumes s if the input continues with exactly s.
func (d *pingParser) lit(s string) bool {
	if end := d.i + len(s); end <= len(d.b) && string(d.b[d.i:end]) == s {
		d.i = end
		return true
	}
	return false
}

// list consumes the rest of an array whose `[` is consumed: `]`, or elem
// {`,` elem} `]`.
func (d *pingParser) list(elem func() bool) bool {
	if d.lit(`]`) {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.lit(`,`) {
			return d.lit(`]`)
		}
	}
}

// ping = {"time":INT,"types":(null|[type,...])} followed by whitespace only.
func (d *pingParser) ping() (resp PingResponse, ok bool) {
	if !d.lit(`{"time":`) {
		return resp, false
	}
	tok, ok := d.number()
	if !ok {
		return resp, false
	}
	// A fraction, an exponent or more than 64 bits is json's type error.
	t, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || !d.lit(`,"types":`) {
		return resp, false
	}
	resp.Time = t
	if !d.lit(`null`) {
		if !d.lit(`[`) || !d.list(d.typeStatus) {
			return resp, false
		}
		resp.Types = d.types // empty but not nil for [], as json has it
	}
	if !d.lit(`}`) {
		return resp, false
	}
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return resp, false
		}
	}
	return resp, true
}

// type = {"type":STR,"cars":(null|[car,...]),"ewt_seconds":NUM,"surge":NUM}
func (d *pingParser) typeStatus() bool {
	if !d.lit(`{"type":`) {
		return false
	}
	name, ok := d.str()
	if !ok || !d.lit(`,"cars":`) {
		return false
	}
	c0, null := d.nCars, d.lit(`null`)
	if !null && (!d.lit(`[`) || !d.list(d.car)) {
		return false
	}
	if !d.lit(`,"ewt_seconds":`) {
		return false
	}
	ewt, ok := d.float()
	if !ok || !d.lit(`,"surge":`) {
		return false
	}
	surge, ok := d.float()
	if !ok || !d.lit(`}`) {
		return false
	}
	if d.fill {
		ts := &d.types[d.nTypes]
		ts.TypeName, ts.EWTSeconds, ts.Surge = productName(name), ewt, surge
		if !null {
			ts.Cars = d.cars[c0:d.nCars:d.nCars]
		}
	}
	d.nTypes++
	return true
}

// car = {"id":STR,"pos":point[,"path":[point,...]]}
//
// omitempty never writes an empty path, so `"path":[]` and `"path":null` are
// left to the delegate.
func (d *pingParser) car() bool {
	if !d.lit(`{"id":`) {
		return false
	}
	id, ok := d.str()
	if !ok || !d.lit(`,"pos":`) {
		return false
	}
	pos, ok := d.point()
	if !ok {
		return false
	}
	p0 := d.nPts
	if d.lit(`,"path":[`) && (!d.list(d.pathPoint) || d.nPts == p0) {
		return false
	}
	if !d.lit(`}`) {
		return false
	}
	if d.fill {
		c := &d.cars[d.nCars]
		n := d.ids.Len()
		d.ids.Write(id)
		c.ID, c.Pos = d.ids.String()[n:], pos
		if d.nPts > p0 {
			c.Path = d.pts[p0:d.nPts:d.nPts]
		}
	}
	d.idLen += len(id)
	d.nCars++
	return true
}

// pathPoint is one point of the path slab.
func (d *pingParser) pathPoint() bool {
	pt, ok := d.point()
	if ok && d.fill {
		d.pts[d.nPts] = pt
	}
	d.nPts++
	return ok
}

// point = {"lat":NUM,"lng":NUM}
func (d *pingParser) point() (ll geo.LatLng, ok bool) {
	if !d.lit(`{"lat":`) {
		return ll, false
	}
	if ll.Lat, ok = d.float(); !ok || !d.lit(`,"lng":`) {
		return ll, false
	}
	if ll.Lng, ok = d.float(); !ok {
		return ll, false
	}
	return ll, d.lit(`}`)
}

// str consumes a string of printable ASCII without escapes and returns its
// contents, still inside the input.
func (d *pingParser) str() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	start := d.i + 1
	for i := start; i < len(d.b); i++ {
		switch c := d.b[i]; {
		case c == '"':
			d.i = i + 1
			return d.b[start:i], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// productName returns the name of a known product without allocating, and a
// copy of any other name.
func productName(b []byte) string {
	for _, n := range vehicleTypeNames {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// number consumes one JSON number literal. strconv alone would also take
// hex, "Inf", "+1", ".5" and "1_0", so the grammar is checked here and only
// the conversion is strconv's, as in encoding/json.
func (d *pingParser) number() ([]byte, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := skipDigits(b, i)
	if j == i || (b[i] == '0' && j > i+1) {
		return nil, false
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = skipDigits(b, i+1); j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = skipDigits(b, i); j == i {
			return nil, false
		}
		i = j
	}
	tok := b[d.i:i]
	d.i = i
	return tok, true
}

// skipDigits returns the index of the first byte at or after i that is not
// a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// float consumes a number; the filling walk also converts it (the counting
// walk has no use for the value). Out of range is json's type error.
func (d *pingParser) float() (float64, bool) {
	tok, ok := d.number()
	if !ok || !d.fill {
		return 0, ok
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}
