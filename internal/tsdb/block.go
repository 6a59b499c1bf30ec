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
	"sort"

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
	var c chunkCols
	for i := range rows {
		c.add(&rows[i])
	}
	var e chunkEncoder
	return e.payload(&c)
}

// chunkCols is a chunk being built: the columns and dictionary of the
// rows added since the last reset, before the columns' codecs run. The
// head keeps one per series as its open rows; reset keeps every buffer,
// so once they have grown to a chunk's size adding rows allocates nothing.
type chunkCols struct {
	dict                                      dictBuilder
	times                                     []int64
	meta, typeIDs, carCounts, carIDs, reasons []byte
	surges, ewts, lats, lngs                  []float64
}

// reset empties the columns and the dictionary, keeping their buffers.
func (c *chunkCols) reset() {
	c.dict.reset()
	c.times = c.times[:0]
	c.meta, c.typeIDs, c.carCounts, c.carIDs, c.reasons = c.meta[:0], c.typeIDs[:0], c.carCounts[:0], c.carIDs[:0], c.reasons[:0]
	c.surges, c.ewts, c.lats, c.lngs = c.surges[:0], c.ewts[:0], c.lats[:0], c.lngs[:0]
}

// reserve sizes empty columns for n rows shaped like r. Grown one append
// at a time, a column allocates several times its final size.
func (c *chunkCols) reserve(n int, r *Row) {
	types, cars := len(r.Types), 0
	for i := range r.Types {
		cars += len(r.Types[i].Cars)
	}
	c.times, c.meta = make([]int64, 0, n), make([]byte, 0, n)
	c.typeIDs, c.carCounts = make([]byte, 0, n*types), make([]byte, 0, n*types)
	c.surges, c.ewts = make([]float64, 0, n*types), make([]float64, 0, n*types)
	c.carIDs = make([]byte, 0, n*cars)
	c.lats, c.lngs = make([]float64, 0, n*cars), make([]float64, 0, n*cars)
}

// rows is the number of rows added since the last reset.
func (c *chunkCols) rows() int { return len(c.times) }

// add appends r (of the chunk's series, not before its last row) to the
// columns. Nothing of r is kept but its strings, which are immutable.
func (c *chunkCols) add(r *Row) {
	c.times = append(c.times, r.Time)
	if r.Gap {
		c.meta = binary.AppendUvarint(c.meta, 1)
		c.reasons = binary.AppendUvarint(c.reasons, c.dict.id(r.Reason))
		return
	}
	c.meta = binary.AppendUvarint(c.meta, uint64(len(r.Types))<<1)
	for ti := range r.Types {
		t := &r.Types[ti]
		c.typeIDs = binary.AppendUvarint(c.typeIDs, c.dict.id(t.Name))
		c.surges = append(c.surges, t.Surge)
		c.ewts = append(c.ewts, t.EWT)
		c.carCounts = binary.AppendUvarint(c.carCounts, uint64(len(t.Cars)))
		for _, car := range t.Cars {
			c.carIDs = binary.AppendUvarint(c.carIDs, c.dict.id(car.ID))
			c.lats = append(c.lats, car.Lat)
			c.lngs = append(c.lngs, car.Lng)
		}
	}
}

// chunkEncoder is the chunk encoder. It keeps its bitstream and payload
// buffer from one chunk to the next, so once they have grown to a chunk's
// size encoding allocates nothing.
type chunkEncoder struct {
	bits     bitWriter
	col, buf []byte
}

// payload returns the payload of c's rows, leaving c as it was. It is
// valid until the next call.
func (e *chunkEncoder) payload(c *chunkCols) []byte {
	buf := binary.AppendUvarint(e.buf[:0], uint64(c.rows()))
	buf = c.dict.encode(buf)
	appendCol := func(col []byte) {
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	appendXOR := func(vals []float64) {
		e.col = e.bits.appendXOR(e.col[:0], vals)
		appendCol(e.col)
	}
	e.col = timesEncode(e.col[:0], c.times)
	appendCol(e.col)
	appendCol(c.meta)
	appendCol(c.typeIDs)
	appendXOR(c.surges)
	appendXOR(c.ewts)
	appendCol(c.carCounts)
	appendCol(c.carIDs)
	appendXOR(c.lats)
	appendXOR(c.lngs)
	appendCol(c.reasons)
	e.buf = buf
	return buf
}

// decodedCols is rows of one series as decoded columns: a whole chunk in
// its decoder, or the rows of a query's window copied out of it. Row k's
// types are [firstType[k], firstType[k+1]) and type j's cars
// [firstCar[j], firstCar[j+1]), counted from the first type and car held;
// reason[k] is a gap row's reason, -1 for an observation. Names, car ids
// and reasons index strs, the chunk's dictionary.
type decodedCols struct {
	series            int
	strs              []string
	times             []int64
	reason, firstType []int32   // per row (firstType: one entry more)
	name, firstCar    []int32   // per type (firstCar: one entry more)
	surge, ewt        []float64 // per type
	carID             []int32   // per car
	lat, lng          []float64 // per car
	// ints and floats back the columns of a copied window, so it costs a
	// handful of slabs; a decoder's columns grow one by one.
	ints   []int32
	floats []float64
}

// chunkDecoder is the chunk decoder. decode validates a whole payload
// into columns the decoder keeps from one chunk to the next; window then
// copies out only the rows a caller asks for. It also holds the read
// buffer segmentReader.chunk fills.
type chunkDecoder struct {
	read []byte
	n    int // rows decoded
	decodedCols
}

// decode validates payload — every count, every column length and every
// dictionary reference, of every row — and keeps its columns for window
// and rowBuf.build. It never panics on corrupt input.
func (d *chunkDecoder) decode(payload []byte, series int) error {
	d.n = 0
	r := wire.NewReader(payload)
	nRows := r.Uvarint()
	// Each row costs at least one meta byte and one timestamp byte.
	if r.Err() != nil || nRows > maxRowsPerChunk || nRows > uint64(len(payload)) {
		return ErrCorrupt
	}
	var err error
	if d.strs, err = dictDecodeTo(d.strs, r); err != nil {
		return err
	}
	// A column that overruns the payload fails r (checked once all ten
	// are cut) and reads as empty.
	col := func() wire.Reader {
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Remaining()) {
			r.Fail()
			return wire.Reader{}
		}
		return *wire.NewReader(r.Take(int(n)))
	}
	timesCol := col()
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
		return ErrCorrupt
	}
	d.times, err = timesDecodeTo(d.times, &timesCol)
	if err != nil || uint64(len(d.times)) != nRows {
		return ErrCorrupt
	}

	// Row meta: per-row type counts, or the gap bit.
	n := int(nRows)
	d.firstType = resize(d.firstType, n+1)
	d.reason = resize(d.reason, n)
	var totalTypes uint64
	for i := 0; i < n; i++ {
		d.firstType[i] = int32(totalTypes)
		d.reason[i] = -1
		v := metaCol.Uvarint()
		if v&1 == 1 {
			d.reason[i] = 0 // a gap: its reason is read below
			continue
		}
		if v>>1 > maxTypesPerRow {
			return ErrCorrupt
		}
		totalTypes += v >> 1
	}
	if metaCol.Err() != nil || totalTypes > uint64(typeIDsCol.Remaining())+1 {
		return ErrCorrupt
	}
	nTypes := int(totalTypes)
	d.firstType[n] = int32(nTypes)

	if d.surge, err = xorDecodeTo(d.surge, &surgesCol); err != nil || len(d.surge) != nTypes {
		return ErrCorrupt
	}
	if d.ewt, err = xorDecodeTo(d.ewt, &ewtsCol); err != nil || len(d.ewt) != nTypes {
		return ErrCorrupt
	}
	d.firstCar = resize(d.firstCar, nTypes+1)
	var totalCars uint64
	for i := 0; i < nTypes; i++ {
		d.firstCar[i] = int32(totalCars)
		c := carCountsCol.Uvarint()
		if c > maxCarsPerType {
			return ErrCorrupt
		}
		totalCars += c
	}
	// Each car costs at least one id byte; the indices are int32.
	if carCountsCol.Err() != nil || totalCars > uint64(carIDsCol.Remaining())+1 || totalCars > math.MaxInt32 {
		return ErrCorrupt
	}
	nCars := int(totalCars)
	d.firstCar[nTypes] = int32(nCars)
	if d.lat, err = xorDecodeTo(d.lat, &latsCol); err != nil || len(d.lat) != nCars {
		return ErrCorrupt
	}
	if d.lng, err = xorDecodeTo(d.lng, &lngsCol); err != nil || len(d.lng) != nCars {
		return ErrCorrupt
	}

	// Dictionary references, all of them: a window that skips a row must
	// not skip its validation.
	d.name = resize(d.name, nTypes)
	d.carID = resize(d.carID, nCars)
	if !d.refs(d.name, &typeIDsCol) || !d.refs(d.carID, &carIDsCol) {
		return ErrCorrupt
	}
	for i, id := range d.reason[:n] {
		if id < 0 {
			continue
		}
		if !d.refs(d.reason[i:i+1], &reasonsCol) {
			return ErrCorrupt
		}
	}
	d.series, d.n = series, n
	return nil
}

// refs fills ids from col, each a reference into the chunk's dictionary.
func (d *chunkDecoder) refs(ids []int32, col *wire.Reader) bool {
	for i := range ids {
		id := col.Uvarint()
		if _, err := dictRef(d.strs, id); err != nil {
			return false
		}
		ids[i] = int32(id)
	}
	return col.Err() == nil
}

// window copies the decoded rows with from ≤ Time < to into w, reusing
// its storage: the dictionary, the times, and one slab each for the int32
// and the float64 columns, which grow by at least a quarter, because
// successive chunks of a series differ in size by a few percent.
func (d *chunkDecoder) window(w *decodedCols, from, to int64) {
	ts := d.times[:d.n]
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	hi := max(lo, sort.Search(len(ts), func(i int) bool { return ts[i] >= to }))
	t0, t1 := d.firstType[lo], d.firstType[hi]
	c0, c1 := d.firstCar[t0], d.firstCar[t1]
	rows, types, cars := hi-lo, int(t1-t0), int(c1-c0)
	w.series = d.series
	w.strs = append(w.strs[:0], d.strs...)
	w.times = append(w.times[:0], ts[lo:hi]...)

	w.ints = grow(w.ints, 2*rows+2*types+cars+2)
	ints := w.ints
	cutInts := func(n int) []int32 {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	w.reason = cutInts(rows)
	copy(w.reason, d.reason[lo:hi])
	w.firstType = cutInts(rows + 1)
	for i := range w.firstType {
		w.firstType[i] = d.firstType[lo+i] - t0
	}
	w.name = cutInts(types)
	copy(w.name, d.name[t0:t1])
	w.firstCar = cutInts(types + 1)
	for i := range w.firstCar {
		w.firstCar[i] = d.firstCar[int(t0)+i] - c0
	}
	w.carID = cutInts(cars)
	copy(w.carID, d.carID[c0:c1])

	w.floats = grow(w.floats, 2*types+2*cars)
	floats := w.floats
	cutFloats := func(src []float64) []float64 {
		s := floats[:len(src):len(src)]
		floats = floats[len(src):]
		copy(s, src)
		return s
	}
	w.surge, w.ewt = cutFloats(d.surge[t0:t1]), cutFloats(d.ewt[t0:t1])
	w.lat, w.lng = cutFloats(d.lat[c0:c1]), cutFloats(d.lng[c0:c1])
}

// rowBuf is the storage of one row at a time: building a row into it
// overwrites the last one built.
type rowBuf struct {
	row   Row
	types []TypeObs
	cars  []Car
}

// build builds row k of c into b and returns it. The row's Types, and
// each type's Cars, are cap-limited sub-slices of b's storage, so an
// append to one never reaches its neighbour.
func (b *rowBuf) build(c *decodedCols, k int) *Row {
	r := &b.row
	*r = Row{Time: c.times[k], Series: c.series}
	if id := c.reason[k]; id >= 0 {
		r.Gap, r.Reason = true, c.strs[id]
		return r
	}
	t0, t1 := int(c.firstType[k]), int(c.firstType[k+1])
	if t0 == t1 {
		return r
	}
	c0, c1 := int(c.firstCar[t0]), int(c.firstCar[t1])
	// The storage grows at least twofold, from room for a large campaign
	// row (9 products, 8 cars each), so a scan grows it a few times at most.
	if cap(b.types) < t1-t0 {
		b.types = make([]TypeObs, max(t1-t0, 2*cap(b.types), 16))
	}
	if cap(b.cars) < c1-c0 {
		b.cars = make([]Car, max(c1-c0, 2*cap(b.cars), 128))
	}
	r.Types = b.types[: t1-t0 : t1-t0]
	for j := t0; j < t1; j++ {
		t := &r.Types[j-t0]
		*t = TypeObs{Name: c.strs[c.name[j]], Surge: c.surge[j], EWT: c.ewt[j]}
		ca, cb := int(c.firstCar[j]), int(c.firstCar[j+1])
		if ca == cb {
			continue
		}
		t.Cars = b.cars[ca-c0 : cb-c0 : cb-c0]
		for m := ca; m < cb; m++ {
			t.Cars[m-ca] = Car{ID: c.strs[c.carID[m]], Lat: c.lat[m], Lng: c.lng[m]}
		}
	}
	return r
}
