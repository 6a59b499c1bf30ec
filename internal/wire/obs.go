package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/geo"
)

// Car is one visible vehicle: per-session randomized ID and position.
// The JSON keys are the v2 gzip-JSONL recording's.
type Car struct {
	ID  string  `json:"i"`
	Lat float64 `json:"a"`
	Lng float64 `json:"o"`
}

// TypeObs is one product's section of a stored observation. Car path
// vectors are dropped: no analysis consumes them.
type TypeObs struct {
	Name  string  `json:"t"`
	Surge float64 `json:"s"`
	EWT   float64 `json:"e"`
	Cars  []Car   `json:"c,omitempty"`
}

// FromResponse converts a served ping to its stored form.
func FromResponse(resp *core.PingResponse) []TypeObs {
	if len(resp.Types) == 0 {
		return nil
	}
	types := make([]TypeObs, len(resp.Types))
	for i := range resp.Types {
		ts := &resp.Types[i]
		t := &types[i]
		t.Name, t.Surge, t.EWT = ts.TypeName, ts.Surge, ts.EWTSeconds
		if len(ts.Cars) > 0 {
			t.Cars = make([]Car, len(ts.Cars))
		}
		for j, c := range ts.Cars {
			t.Cars[j] = Car{ID: c.ID, Lat: c.Pos.Lat, Lng: c.Pos.Lng}
		}
	}
	return types
}

// FillResponse rebuilds the ping served at time from its stored form into
// *dst, reusing the capacity of dst.Types and of each product's Cars. A
// product name the API does not know is an error, not a dropped section;
// on error *dst is unspecified.
func FillResponse(dst *core.PingResponse, time int64, types []TypeObs) error {
	dst.Time = time
	dst.Types = slices.Grow(dst.Types[:0], len(types))[:len(types)]
	for i := range types {
		t := &types[i]
		vt, err := core.ParseVehicleType(t.Name)
		if err != nil {
			return fmt.Errorf("wire: observation at t=%d: %w", time, err)
		}
		ts := &dst.Types[i]
		ts.Type, ts.TypeName, ts.Surge, ts.EWTSeconds = vt, t.Name, t.Surge, t.EWT
		ts.Cars = slices.Grow(ts.Cars[:0], len(t.Cars))[:len(t.Cars)]
		for j, c := range t.Cars {
			ts.Cars[j] = core.CarView{ID: c.ID, Pos: geo.LatLng{Lat: c.Lat, Lng: c.Lng}}
		}
	}
	return nil
}

// AppendTypes appends the flat encoding of types: a count, then per type
// its name, surge, EWT and counted cars (id, lat, lng). It is the body of
// a bus ping payload and of a tsdb WAL row.
func AppendTypes(buf []byte, types []TypeObs) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(types)))
	for i := range types {
		t := &types[i]
		buf = AppendString(buf, t.Name)
		buf = AppendF64(buf, t.Surge)
		buf = AppendF64(buf, t.EWT)
		buf = binary.AppendUvarint(buf, uint64(len(t.Cars)))
		for _, c := range t.Cars {
			buf = AppendString(buf, c.ID)
			buf = AppendF64(buf, c.Lat)
			buf = AppendF64(buf, c.Lng)
		}
	}
	return buf
}

// Types reads a section written by AppendTypes, holding at most maxTypes
// types of at most maxCars cars each and strings of at most maxStr bytes.
// It returns nil once the Reader has failed.
func (r *Reader) Types(maxTypes, maxCars, maxStr int) []TypeObs {
	nTypes := r.Uvarint()
	// Each type costs ≥ 18 bytes (name prefix + two floats + car count).
	if r.err != nil || nTypes > uint64(maxTypes) || nTypes > uint64(r.Remaining()/18+1) {
		r.Fail()
		return nil
	}
	var types []TypeObs
	if nTypes > 0 {
		types = make([]TypeObs, nTypes)
	}
	for i := range types {
		t := &types[i]
		t.Name = r.String(maxStr)
		t.Surge = r.F64()
		t.EWT = r.F64()
		nCars := r.Uvarint()
		// Each car costs ≥ 17 bytes (id prefix + two floats).
		if r.err != nil || nCars > uint64(maxCars) || nCars > uint64(r.Remaining()/17+1) {
			r.Fail()
			return nil
		}
		if nCars > 0 {
			t.Cars = make([]Car, nCars)
		}
		for j := range t.Cars {
			c := &t.Cars[j]
			c.ID = r.String(maxStr)
			c.Lat = r.F64()
			c.Lng = r.F64()
		}
	}
	if r.err != nil {
		return nil
	}
	return types
}
