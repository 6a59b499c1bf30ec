// The columnar chunk codec. A chunk holds up to chunkRows consecutive
// observations of ONE series, transposed into columns so each column gets
// the codec that suits it:
//
//	timestamps     delta-of-delta varints (5 s ping clock → 1 byte/row)
//	row meta       uvarint(2·nTypes | gapBit)
//	type names     per-chunk dictionary references
//	surge, EWT     Gorilla XOR floats (few distinct quantized values)
//	car counts     uvarints
//	car ids        dictionary references (ids repeat while a car is visible)
//	car lat/lng    Gorilla XOR floats (drifting coordinates)
//	gap reasons    dictionary references
//
// Layout: nRows | dictionary | columns (each uvarint-length-prefixed).
// The segment writer appends a CRC32 after each chunk payload.

package tsdb

import (
	"encoding/binary"
	"math"

	"repro/internal/wire"
)

// defaultChunkRows bounds rows per chunk: it is the sparse-index
// granularity (a range query decodes at most one partial chunk on each
// side of the window) and the dictionary scope.
const defaultChunkRows = 512

const maxRowsPerChunk = 1 << 20

// encodeChunk encodes rows (one series, non-decreasing time) into a
// self-contained payload.
func encodeChunk(rows []Row) []byte {
	var (
		dict      dictBuilder
		times     = make([]int64, len(rows))
		meta      []byte
		typeIDs   []byte
		surges    []float64
		ewts      []float64
		carCounts []byte
		carIDs    []byte
		lats      []float64
		lngs      []float64
		reasons   []byte
	)
	for i := range rows {
		r := &rows[i]
		times[i] = r.Time
		if r.Gap {
			meta = binary.AppendUvarint(meta, 1)
			reasons = binary.AppendUvarint(reasons, dict.id(r.Reason))
			continue
		}
		meta = binary.AppendUvarint(meta, uint64(len(r.Types))<<1)
		for ti := range r.Types {
			t := &r.Types[ti]
			typeIDs = binary.AppendUvarint(typeIDs, dict.id(t.Name))
			surges = append(surges, t.Surge)
			ewts = append(ewts, t.EWT)
			carCounts = binary.AppendUvarint(carCounts, uint64(len(t.Cars)))
			for _, c := range t.Cars {
				carIDs = binary.AppendUvarint(carIDs, dict.id(c.ID))
				lats = append(lats, c.Lat)
				lngs = append(lngs, c.Lng)
			}
		}
	}

	buf := binary.AppendUvarint(nil, uint64(len(rows)))
	buf = dict.encode(buf)
	appendCol := func(col []byte) {
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	appendCol(timesEncode(nil, times))
	appendCol(meta)
	appendCol(typeIDs)
	appendCol(xorEncode(nil, surges))
	appendCol(xorEncode(nil, ewts))
	appendCol(carCounts)
	appendCol(carIDs)
	appendCol(xorEncode(nil, lats))
	appendCol(xorEncode(nil, lngs))
	appendCol(reasons)
	return buf
}

// decodeChunk decodes a chunk payload into rows, assigning every row the
// given series. It never panics on corrupt input.
func decodeChunk(payload []byte, series int) ([]Row, error) {
	r := wire.NewReader(payload)
	nRows := r.Uvarint()
	// Each row costs at least one meta byte and one timestamp byte.
	if r.Err() != nil || nRows > maxRowsPerChunk || nRows > uint64(len(payload)) {
		return nil, ErrCorrupt
	}
	strs, err := dictDecode(r)
	if err != nil {
		return nil, err
	}
	// A column that overruns the payload fails r (checked once all ten
	// are cut) and reads as empty.
	col := func() *wire.Reader {
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Remaining()) {
			r.Fail()
			return wire.NewReader(nil)
		}
		return wire.NewReader(r.Take(int(n)))
	}

	timesCol := col()
	times, err := timesDecode(timesCol)
	if err != nil || uint64(len(times)) != nRows {
		return nil, ErrCorrupt
	}
	metaCol := col()
	typeIDsCol := col()
	surgesCol := col()
	ewtsCol := col()
	carCountsCol := col()
	carIDsCol := col()
	latsCol := col()
	lngsCol := col()
	reasonsCol := col()
	if r.Err() != nil {
		return nil, ErrCorrupt
	}

	// First pass over meta to learn the per-row type counts.
	counts := make([]uint64, nRows)
	var totalTypes uint64
	for i := range counts {
		v := metaCol.Uvarint()
		if v&1 == 1 {
			counts[i] = math.MaxUint64 // gap marker
			continue
		}
		counts[i] = v >> 1
		if counts[i] > maxTypesPerRow {
			return nil, ErrCorrupt
		}
		totalTypes += counts[i]
	}
	if metaCol.Err() != nil || totalTypes > uint64(typeIDsCol.Remaining())+1 {
		return nil, ErrCorrupt
	}

	surges, err := xorDecode(surgesCol)
	if err != nil || uint64(len(surges)) != totalTypes {
		return nil, ErrCorrupt
	}
	ewts, err := xorDecode(ewtsCol)
	if err != nil || uint64(len(ewts)) != totalTypes {
		return nil, ErrCorrupt
	}
	carCounts := make([]uint64, totalTypes)
	var totalCars uint64
	for i := range carCounts {
		carCounts[i] = carCountsCol.Uvarint()
		if carCounts[i] > maxCarsPerType {
			return nil, ErrCorrupt
		}
		totalCars += carCounts[i]
	}
	if carCountsCol.Err() != nil || totalCars > uint64(carIDsCol.Remaining())+1 {
		return nil, ErrCorrupt
	}
	lats, err := xorDecode(latsCol)
	if err != nil || uint64(len(lats)) != totalCars {
		return nil, ErrCorrupt
	}
	lngs, err := xorDecode(lngsCol)
	if err != nil || uint64(len(lngs)) != totalCars {
		return nil, ErrCorrupt
	}

	rows := make([]Row, nRows)
	ti, ci := 0, 0
	for i := range rows {
		row := &rows[i]
		row.Time = times[i]
		row.Series = series
		if counts[i] == math.MaxUint64 {
			row.Gap = true
			row.Reason, err = dictRef(strs, reasonsCol.Uvarint())
			if err != nil || reasonsCol.Err() != nil {
				return nil, ErrCorrupt
			}
			continue
		}
		if counts[i] == 0 {
			continue
		}
		row.Types = make([]TypeObs, counts[i])
		for k := range row.Types {
			t := &row.Types[k]
			t.Name, err = dictRef(strs, typeIDsCol.Uvarint())
			if err != nil || typeIDsCol.Err() != nil {
				return nil, ErrCorrupt
			}
			t.Surge = surges[ti]
			t.EWT = ewts[ti]
			nc := carCounts[ti]
			ti++
			if nc == 0 {
				continue
			}
			t.Cars = make([]Car, nc)
			for m := range t.Cars {
				c := &t.Cars[m]
				c.ID, err = dictRef(strs, carIDsCol.Uvarint())
				if err != nil || carIDsCol.Err() != nil {
					return nil, ErrCorrupt
				}
				c.Lat = lats[ci]
				c.Lng = lngs[ci]
				ci++
			}
		}
	}
	return rows, nil
}
