package sim

import (
	"repro/internal/core"
	"repro/internal/geo"
)

// fleet is the struct-of-arrays driver store. Each online session lives
// in a slot: hot per-driver fields are parallel columns indexed by slot,
// so the movement phase streams cache-line-friendly data instead of
// chasing one heap pointer per driver; the rarely-read fields (session
// string, POOL stop queue) sit in a cold side table so they never occupy
// hot-loop cache lines.
//
// Slots are recycled through a LIFO free list. All allocation and freeing
// happens in the serial commit sections of Step, so slot assignment — and
// with it every slot-keyed data structure — is deterministic and
// worker-count independent.
type fleet struct {
	n    int     // live sessions
	high int     // all live slots are < high (column length)
	free []int32 // LIFO recycled slots

	live []bool

	// hot columns
	id           []int64
	typ          []uint8 // core.VehicleType
	state        []uint8 // DriverState
	pos          []geo.Point
	pickup       []geo.Point
	dest         []geo.Point
	destDrop     []bool
	poolRiders   []uint8
	offlineAt    []int64
	idleSince    []int64
	priceFactor  []float64
	earned       []float64
	cruiseTarget []geo.Point
	cruiseUntil  []int64

	// session IDs (cold) and position-history rings: the columns a
	// snapshot freezes
	carColumns

	// cold side table (the session ID is in carColumns)
	stops [][]PoolStop
}

// carColumns are the fleet columns a snapshot answer reads by slot: the
// cold session ID and the position-history ring, pathLen entries per slot,
// flat, written at ring position pathPos[s] and holding pathN[s] points.
type carColumns struct {
	session []string
	path    []geo.Point
	pathN   []uint8
	pathPos []uint8
}

// freeze copies c into dst's buffers and returns the copy. A buffer too
// short is made anew with a sixteenth more room, so a growing fleet remakes
// it once per sixteenth of growth.
func (c *carColumns) freeze(dst carColumns) carColumns {
	return carColumns{copyColumn(dst.session, c.session), copyColumn(dst.path, c.path),
		copyColumn(dst.pathN, c.pathN), copyColumn(dst.pathPos, c.pathPos)}
}

func copyColumn[T any](dst, src []T) []T {
	if cap(dst) < len(src) {
		dst = make([]T, 0, len(src)+len(src)/16)
	}
	return append(dst[:0], src...)
}

// alloc returns a free slot, extending the columns when the free list is
// empty. The returned slot's columns hold stale values; the caller
// overwrites every field.
func (f *fleet) alloc() int32 {
	f.n++
	if k := len(f.free); k > 0 {
		s := f.free[k-1]
		f.free = f.free[:k-1]
		f.live[s] = true
		return s
	}
	s := int32(f.high)
	f.high++
	f.live = append(f.live, true)
	f.id = append(f.id, 0)
	f.typ = append(f.typ, 0)
	f.state = append(f.state, 0)
	f.pos = append(f.pos, geo.Point{})
	f.pickup = append(f.pickup, geo.Point{})
	f.dest = append(f.dest, geo.Point{})
	f.destDrop = append(f.destDrop, false)
	f.poolRiders = append(f.poolRiders, 0)
	f.offlineAt = append(f.offlineAt, 0)
	f.idleSince = append(f.idleSince, 0)
	f.priceFactor = append(f.priceFactor, 0)
	f.earned = append(f.earned, 0)
	f.cruiseTarget = append(f.cruiseTarget, geo.Point{})
	f.cruiseUntil = append(f.cruiseUntil, 0)
	for i := 0; i < pathLen; i++ {
		f.path = append(f.path, geo.Point{})
	}
	f.pathN = append(f.pathN, 0)
	f.pathPos = append(f.pathPos, 0)
	f.session = append(f.session, "")
	f.stops = append(f.stops, nil)
	return s
}

// freeSlot releases a slot back to the free list, dropping cold
// references so the GC can reclaim them.
func (f *fleet) freeSlot(s int32) {
	f.live[s] = false
	f.session[s] = ""
	f.stops[s] = nil
	f.n--
	f.free = append(f.free, s)
}

// resetPath seeds the path ring with the slot's current position.
func (f *fleet) resetPath(s int32) {
	base := int(s) * pathLen
	f.path[base] = f.pos[s]
	f.pathN[s] = 1
	f.pathPos[s] = 1 % pathLen
}

// record appends the slot's current position to its path ring. When the
// ring is already saturated with the current position (a parked car), the
// write is skipped entirely: it would change nothing the ring returns.
func (f *fleet) record(s int32) {
	base := int(s) * pathLen
	p := f.pos[s]
	if f.pathN[s] == pathLen {
		same := true
		for j := 0; j < pathLen; j++ {
			if f.path[base+j] != p {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	f.path[base+int(f.pathPos[s])] = p
	f.pathPos[s] = (f.pathPos[s] + 1) % pathLen
	if f.pathN[s] < pathLen {
		f.pathN[s]++
	}
}

// pathPoints appends the slot's recent positions oldest-first to buf.
func (c *carColumns) pathPoints(s int32, buf []geo.Point) []geo.Point {
	base := int(s) * pathLen
	return appendRing(buf, c.path[base:base+pathLen], int(c.pathN[s]), int(c.pathPos[s]))
}

// appendRing appends the n newest points of a pathLen-entry ring whose next
// write goes to pos to buf, oldest first.
func appendRing(buf, ring []geo.Point, n, pos int) []geo.Point {
	for i := 0; i < n; i++ {
		buf = append(buf, ring[(pos-n+i+2*pathLen)%pathLen])
	}
	return buf
}

// stepToward moves the slot toward target by at most dist meters and
// reports whether the target was reached.
func (f *fleet) stepToward(s int32, target geo.Point, dist float64) bool {
	v := target.Sub(f.pos[s])
	n := v.Norm()
	if n <= dist {
		f.pos[s] = target
		return true
	}
	f.pos[s] = f.pos[s].Add(v.Scale(dist / n))
	return false
}

// view materializes the slot into the exported Driver struct. The copy is
// what EachDriver hands to callbacks; it shares only the immutable
// session string and the stop queue's backing array.
func (f *fleet) view(s int32, d *Driver) {
	d.ID = f.id[s]
	d.Session = f.session[s]
	d.Type = core.VehicleType(f.typ[s])
	d.Pos = f.pos[s]
	d.State = DriverState(f.state[s])
	d.Pickup = f.pickup[s]
	d.Dest = f.dest[s]
	d.destDrop = f.destDrop[s]
	d.stops = f.stops[s]
	d.PoolRiders = int(f.poolRiders[s])
	d.OfflineAt = f.offlineAt[s]
	d.PriceFactor = f.priceFactor[s]
	d.idleSince = f.idleSince[s]
	d.EarnedUSD = f.earned[s]
	d.cruiseTarget = f.cruiseTarget[s]
	d.cruiseUntil = f.cruiseUntil[s]
	base := int(s) * pathLen
	copy(d.path[:], f.path[base:base+pathLen])
	d.pathN = int(f.pathN[s])
	d.pathPos = int(f.pathPos[s])
}
