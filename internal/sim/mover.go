package sim

import (
	"math/rand"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
)

// mover is a world's movement model: how a car gets from A to B and how
// long that takes. NewWorld picks one — plane (below) or street (road.go)
// — and nothing else in the package asks which. The drive (cruise,
// advance) and the upfront estimate (trip) come from the same model, so a
// fare or EWT quoted from trip is the time advance then takes, to within
// a tick.
type mover interface {
	// cruise drives idle slot s for one tick toward its cruise target,
	// re-drawing the target from rng once reached or expired.
	cruise(s int32, dt float64, rng *rand.Rand)
	// advance drives dispatched slot s toward target for one tick and
	// reports whether it arrived.
	advance(s int32, target geo.Point, dt float64) bool
	// trip estimates driving from→to door to door under current
	// conditions. Serial phases only.
	trip(from, to geo.Point) (meters, seconds float64)
	// refineK is how many still-idle straight-line-nearest candidates
	// dispatch re-ranks by trip seconds.
	refineK() int
	// forWorker returns the mover one movement worker drives with: the
	// same model with scratch of its own, so workers share nothing mutable.
	forWorker() mover
	// reset forgets what the model keeps about slot s, for a new session
	// starts there (serial phases only); the plane keeps nothing.
	reset(s int32)
	// tally closes a tick (serial stats phase).
	tally()
	// freeze returns trip under the conditions of this instant, safe for
	// concurrent use and unaffected by later ticks: what a Snapshot carries.
	// A model with conditions to freeze copies them into buf (a recycled
	// snapshot's, or nil) and returns the copy; the plane returns nil.
	freeze(buf []float64) (tripFunc, []float64)
}

// tripFunc is a frozen mover.trip.
type tripFunc func(from, to geo.Point) (meters, seconds float64)

// ewtOf turns the drive time of the nearest idle car into the estimated
// wait: dispatch overhead on top, capped at the paper's observed maximum.
func ewtOf(driveSeconds float64) float64 {
	return min(dispatchOverhead+driveSeconds, maxEWTSeconds)
}

// ewtFrom is the wait a rider at pos is quoted when slot's car is the
// nearest idle one. Serial phases only.
func (w *World) ewtFrom(slot int32, pos geo.Point) float64 {
	_, sec := w.mv.trip(w.fleet.pos[slot], pos)
	return ewtOf(sec)
}

// plane is euclidean movement: straight lines, stretched by the Manhattan
// detour factor, at the hour's street speed.
type plane struct{ w *World }

func planeTrip(now int64, from, to geo.Point) (meters, seconds float64) {
	meters = geo.Dist(from, to) * manhattanFactor
	return meters, meters / StreetSpeed(now)
}

func (p plane) trip(from, to geo.Point) (meters, seconds float64) {
	return planeTrip(p.w.now, from, to)
}

func (p plane) freeze([]float64) (tripFunc, []float64) {
	now := p.w.now
	return func(from, to geo.Point) (float64, float64) { return planeTrip(now, from, to) }, nil
}

func (plane) refineK() int       { return 1 }
func (p plane) forWorker() mover { return p }
func (plane) reset(int32)        {}
func (plane) tally()             {}

func (p plane) advance(s int32, target geo.Point, dt float64) bool {
	return p.w.fleet.stepToward(s, target, StreetSpeed(p.w.now)*dt/manhattanFactor)
}

// cruise drifts toward the target with a jittered heading. Targets are
// hotspots most of the time, producing the spatial skew in Figs 9 and 10.
func (p plane) cruise(s int32, dt float64, rng *rand.Rand) {
	w, f := p.w, &p.w.fleet
	v := f.cruiseTarget[s].Sub(f.pos[s])
	n := v.Norm() // Dist(pos, target): Hypot ignores the sign
	if w.now >= f.cruiseUntil[s] || n < 20 {
		f.cruiseTarget[s] = w.samplePlaceRand(rng)
		f.cruiseUntil[s] = w.now + int64(120+rng.Intn(600))
		v = f.cruiseTarget[s].Sub(f.pos[s])
		n = v.Norm()
	}
	if n < 1 {
		return
	}
	step := idleSpeed * dt
	move := v.Scale(step / n)
	move.X += rng.NormFloat64() * step * 0.3
	move.Y += rng.NormFloat64() * step * 0.3
	f.pos[s] = w.profile.Region.Clamp(f.pos[s].Add(move))
}

// shardOps is one movement shard's private state: its RNG (rng draws
// from stream, which shardRand re-keys every tick) and the buffer of
// deferred world mutations — grid updates and removals may not touch
// shared state from workers, so they queue here and the commit loop
// applies them in (shard, index) order.
type shardOps struct {
	stream   *shardStream
	rng      *rand.Rand
	removals []int32                               // drivers whose session ended this tick
	moves    []geo.SlotPoint                       // idle cars and joinable trips that moved, in slot order
	inserts  [core.NumVehicleTypes][]geo.SlotPoint // trip completions re-entering the map
	poolIns  []geo.SlotPoint                       // trips becoming joinable
	poolDel  []int32                               // trips no longer joinable
	dropoffs int64
}

func (o *shardOps) reset() {
	o.removals = o.removals[:0]
	o.moves = o.moves[:0]
	for vt := range o.inserts {
		o.inserts[vt] = o.inserts[vt][:0]
	}
	o.poolIns = o.poolIns[:0]
	o.poolDel = o.poolDel[:0]
	o.dropoffs = 0
}

// moveDrivers advances every driver's state machine by one tick.
//
// The phase is parallel over fixed slot-range shards: each shard mutates
// only its own slots' columns and its private shardOps, drawing
// randomness from the shard's (seed, tick, shard) stream. Everything the
// shards index is sized here, serially, before the fan-out (growMoveOps).
// The trailing commit applies grid moves, re-inserts, and
// removals serially in shard order, so the world after the phase is
// independent of worker count. A shard's trips that stop being joinable
// leave the pool layer before its finished trips enter their idle layers,
// for a slot lives in one layer at a time. With one worker the whole phase
// runs inline and allocation-free: the RNGs, commit buffers, and grid cells
// are all reused tick over tick.
func (w *World) moveDrivers() {
	shards := numShards(w.fleet.high)
	w.growMoveOps(shards)
	w.runShards(shards, w.moveFn)
	f := &w.fleet
	for s := 0; s < shards; s++ {
		o := &w.moveOps[s]
		w.TotalDropoffs += o.dropoffs
		w.grid.RemoveBatch(o.poolDel)
		w.grid.MoveBatch(o.moves)
		for vt := range o.inserts {
			w.grid.InsertBatch(vt, o.inserts[vt])
		}
		w.grid.InsertBatch(poolLayer, o.poolIns)
		for vt := range o.inserts {
			for _, ip := range o.inserts[vt] {
				// A re-inserted driver just finished a trip; the commit loop
				// runs serially in shard order, so emission order is stable.
				w.emitSlot(bus.KindTripComplete, ip.Slot, 0, core.VehicleType(vt).String())
			}
		}
		for _, sl := range o.removals {
			w.TotalOffline++
			w.emitSlot(bus.KindDriverOffline, sl, 0, core.VehicleType(f.typ[sl]).String())
			w.removeSlot(sl)
		}
	}
}

// moveShard runs one shard of the movement phase on the worker's mover.
func (w *World) moveShard(worker, s int) {
	dt := float64(TickSeconds)
	mv := w.workerMv[worker]
	o := &w.moveOps[s]
	o.reset()
	rng := w.shardRand(s)
	lo, hi := shardBounds(s, w.fleet.high)
	live := w.fleet.live
	for i := lo; i < hi; i++ {
		if live[i] {
			w.moveOne(int32(i), dt, rng, mv, o)
		}
	}
}

// moveOne advances a single driver with mv, queueing shared-state
// mutations in o. It may only write the slot's own columns; everything
// else is deferred.
func (w *World) moveOne(s int32, dt float64, rng *rand.Rand, mv mover, o *shardOps) {
	f := &w.fleet
	wasJoin := w.joinableSlot(s)
	switch DriverState(f.state[s]) {
	case StateIdle:
		if f.offlineAt[s] <= w.now {
			o.removals = append(o.removals, s)
			return // departed drivers don't extend their path
		}
		if w.market == MarketDriverSet && w.now-f.idleSince[s] > 1200 {
			// No fare for 20 minutes: lower the asking price and keep
			// waiting (lose-shift).
			f.priceFactor[s] = clampFactor(f.priceFactor[s] - 0.1)
			f.idleSince[s] = w.now
		}
		before := f.pos[s]
		mv.cruise(s, dt, rng)
		if f.pos[s] != before {
			o.moves = append(o.moves, geo.SlotPoint{Slot: s, Pos: f.pos[s]})
		}
		f.record(s)
		return
	case StateEnRoute:
		if mv.advance(s, f.pickup[s], dt) {
			// Passenger boards; trip begins.
			f.state[s] = uint8(StateOnTrip)
		}
	case StateOnTrip:
		if mv.advance(s, f.dest[s], dt) {
			if f.destDrop[s] {
				o.dropoffs++
				if f.poolRiders[s] > 0 {
					f.poolRiders[s]--
				}
			}
			if st := f.stops[s]; len(st) > 0 {
				// A shared POOL trip continues through its stop queue.
				next := st[0]
				f.stops[s] = st[1:]
				f.dest[s] = next.Pos
				f.destDrop[s] = next.Drop
			} else {
				f.poolRiders[s] = 0
				if f.offlineAt[s] <= w.now {
					if wasJoin {
						o.poolDel = append(o.poolDel, s)
					}
					o.removals = append(o.removals, s)
					return
				}
				f.state[s] = uint8(StateIdle)
				f.idleSince[s] = w.now
				f.cruiseTarget[s] = w.samplePlaceRand(rng)
				f.cruiseUntil[s] = w.now + int64(120+rng.Intn(600))
				o.inserts[f.typ[s]] = append(o.inserts[f.typ[s]], geo.SlotPoint{Slot: s, Pos: f.pos[s]})
			}
		}
	}
	f.record(s)
	switch isJoin := w.joinableSlot(s); {
	case wasJoin && isJoin:
		o.moves = append(o.moves, geo.SlotPoint{Slot: s, Pos: f.pos[s]})
	case wasJoin && !isJoin:
		o.poolDel = append(o.poolDel, s)
	case !wasJoin && isJoin:
		o.poolIns = append(o.poolIns, geo.SlotPoint{Slot: s, Pos: f.pos[s]})
	}
}
