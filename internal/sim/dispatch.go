package sim

import (
	"math/rand"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
)

// The parallel spawn and dispatch phases.
//
// Both phases follow the same plan/commit split as movement: a parallel
// precompute builds per-item plans from per-(seed, tick, salt, index) RNG
// streams and read-only world state (the grid's idle and joinable-POOL
// layers, the surge cache — none of which change during the precompute),
// then a serial commit applies the plans in item order. The commit is
// draw-free: every random number an item needs was drawn on its own
// stream up front, so results are bit-for-bit identical for every worker
// count.
//
// Dispatch has a subtlety movement doesn't: bookings interact. Request j
// may book the driver request i < j wanted. The precompute therefore
// over-collects — the nearest dispatchCandK candidates instead of the 1
// (or 4) the mechanism needs — and the commit filters each list down to
// candidates still idle. During dispatch the idle set only shrinks (no
// driver becomes idle mid-phase), so the still-idle prefix of a
// phase-start nearest list is exactly the live nearest list; only when a
// list is exhausted and didn't already cover the whole product
// (candAll/ewtAll) does the commit fall back to a live grid query.

// spawnBlock and dispatchBlock are the parallel-precompute batch sizes:
// per-tick item counts are in the hundreds, so blocks keep goroutine
// dispatch overhead amortized.
const (
	spawnBlock    = 16
	dispatchBlock = 16
)

// spawnPlan is one precomputed driver arrival.
type spawnPlan struct {
	pos          geo.Point
	cruiseTarget geo.Point
	session      string
	sessionSec   float64
	factor       float64
	cruiseDelta  int64
	vt           uint8
}

// spawnArrivals brings new drivers online at the Poisson rate that holds
// the population near its diurnal target, modulated by surge (supply
// elasticity, §5.5). The per-arrival draws run in parallel blocks; the
// serial commit allocates slots in arrival order.
func (w *World) spawnArrivals(dt float64) {
	p := w.profile
	target := float64(p.PeakDrivers) * p.SupplyDiurnal[HourOfDay(w.now)]
	rate := target / w.effSessionSec // arrivals per second
	// A profile without surge areas (taxi validation, custom rigs) has no
	// surge signal: treat it as a uniform 1.0 rather than dividing by
	// zero, which would turn the arrival rate into NaN and silently stop
	// all spawning.
	avgSurge := 1.0
	if len(w.areas) > 0 {
		avgSurge = 0.0
		for _, s := range w.surgeCache {
			avgSurge += s
		}
		avgSurge /= float64(len(w.areas))
	}
	rate *= 1 + p.SupplyBoost*(avgSurge-1)
	n := poisson(w.rng, rate*dt)
	if n == 0 {
		return
	}
	for len(w.spawnPlans) < n {
		w.spawnPlans = append(w.spawnPlans, spawnPlan{})
	}
	plans := w.spawnPlans[:n]
	w.runShards((n+spawnBlock-1)/spawnBlock, func(_, b int) {
		for i := b * spawnBlock; i < min((b+1)*spawnBlock, n); i++ {
			w.buildSpawnPlan(i, &plans[i])
		}
	})
	for i := range plans {
		s := w.logon(&plans[i])
		w.TotalSpawned++
		w.emitSlot(bus.KindDriverSpawn, s, 0, core.VehicleType(plans[i].vt).String())
	}
}

// buildSpawnPlan draws arrival i's full logon state from its own stream.
func (w *World) buildSpawnPlan(i int, pl *spawnPlan) {
	rng := w.phaseRand(saltSpawn, i)
	vt := core.VehicleType(sampleShareRand(rng, w.fleetCDF))
	pos := w.samplePlaceRand(rng)
	// Driver flocking at spawn: pick the better of two candidate start
	// locations, weighting by area surge.
	alt := w.samplePlaceRand(rng)
	if w.surgeWeight(alt) > w.surgeWeight(pos) {
		pos = alt
	}
	w.drawLogon(rng, vt, pos, pl)
}

// drawLogon draws the logon state of a new session of the product at pos
// from rng: session ID, pricing posture, session length, cruise plan.
func (w *World) drawLogon(rng *rand.Rand, vt core.VehicleType, pos geo.Point, pl *spawnPlan) {
	pl.vt = uint8(vt)
	pl.pos = pos
	pl.session = newSessionID(rng)
	pl.factor = clampFactor(1 + 0.2*rng.NormFloat64())
	pl.sessionSec = w.sessionLengthRand(rng, vt)
	pl.cruiseTarget = w.samplePlaceRand(rng)
	pl.cruiseDelta = int64(120 + rng.Intn(600))
}

// logon brings a drawn session online, idle at its position, and returns
// its slot: the one place a new session's fleet columns are assigned.
// Draw-free and serial, so slots are handed out in commit order.
func (w *World) logon(pl *spawnPlan) int32 {
	f := &w.fleet
	s := f.alloc()
	f.id[s] = w.nextID
	w.nextID++
	f.session[s] = pl.session
	f.typ[s] = pl.vt
	f.pos[s] = pl.pos
	f.state[s] = uint8(StateIdle)
	f.pickup[s] = geo.Point{}
	f.dest[s] = geo.Point{}
	f.destDrop[s] = false
	f.stops[s] = nil
	f.poolRiders[s] = 0
	f.priceFactor[s] = pl.factor
	f.idleSince[s] = w.now
	f.earned[s] = 0
	f.offlineAt[s] = w.now + int64(pl.sessionSec)
	f.cruiseTarget[s] = pl.cruiseTarget
	f.cruiseUntil[s] = w.now + pl.cruiseDelta
	f.resetPath(s)
	w.mv.reset(s)
	w.grid.Insert(int(pl.vt), s, pl.pos)
	return s
}

// dispatchCandK is how many phase-start nearest candidates each request
// precomputes; enough that the still-idle filter almost never needs the
// live-grid fallback (at most 4 are consumed per request, so ties with
// other same-tick requests must book >4 of them to exhaust the list).
const dispatchCandK = 8

type slotDist struct {
	slot int32
	dist float64
}

// subPlan is one precomputed passenger request (demand shocks multiply a
// request into several at the same pickup, hence "sub").
type subPlan struct {
	pickup   geo.Point
	dest     geo.Point
	poolDest geo.Point // second POOL drop-off, pre-drawn
	uElastic float64   // elasticity uniform, pre-drawn
	area     int32
	poolCand int32 // joinable POOL trip at phase start, -1 none
	vt       uint8
	candN    uint8
	ewtN     uint8
	candAll  bool // cand covers the product's whole idle set
	ewtAll   bool // ewt covers the whole UberX idle set
	cand     [dispatchCandK]slotDist
	ewt      [dispatchCandK]int32 // nearest idle UberX slots: the wait is the mover's to estimate
}

// generateRequests spawns passenger demand at the current diurnal rate
// and dispatches each request: plan draws serially (cheap), candidate
// queries in parallel (the expensive part), bookings serially in request
// order.
func (w *World) generateRequests(dt float64) {
	p := w.profile
	curve := &p.DemandDiurnal
	if Weekend(w.now) {
		curve = &p.WeekendDemandDiurnal
	}
	rate := p.PeakRequestsPerHour / 3600 * curve[HourOfDay(w.now)]
	n := poisson(w.rng, rate*dt)
	if n == 0 {
		return
	}
	subs := w.subPlans[:0]
	for i := 0; i < n; i++ {
		rng := w.phaseRand(saltReq, i)
		pickup := w.samplePlaceRand(rng)
		area := w.areaIndex.Find(pickup)
		count := 1
		if area >= 0 {
			// A shock multiplies arrivals: each unit of factor above 1
			// adds an extra request at the same spot with the fractional
			// remainder drawn probabilistically.
			extra := w.shockFactor(area) - 1
			for extra > 0 {
				if extra >= 1 || rng.Float64() < extra {
					count++
				}
				extra--
			}
		}
		for k := 0; k < count; k++ {
			sp := subPlan{pickup: pickup, area: int32(area)}
			sp.vt = uint8(sampleShareRand(rng, w.demandCDF))
			sp.uElastic = rng.Float64()
			sp.dest = w.samplePlaceRand(rng)
			if core.VehicleType(sp.vt) == core.UberPOOL {
				sp.poolDest = w.samplePlaceRand(rng)
			}
			subs = append(subs, sp)
		}
	}
	w.subPlans = subs

	w.runShards((len(subs)+dispatchBlock-1)/dispatchBlock, func(_, b int) {
		var buf [dispatchCandK]geo.SlotNeighbor // exact for both queries, so it stays on the stack
		for i := b * dispatchBlock; i < min((b+1)*dispatchBlock, len(subs)); i++ {
			w.buildSubPlan(&subs[i], buf[:0])
		}
	})
	for i := range subs {
		w.commitSub(&subs[i])
	}
}

// buildSubPlan runs the request's grid queries against phase-start state.
// Draw-free: safe to run on any worker in any order.
func (w *World) buildSubPlan(sub *subPlan, buf []geo.SlotNeighbor) {
	if sub.area >= 0 {
		sub.ewtAll = w.grid.Len(int(core.UberX)) <= dispatchCandK
		near := w.grid.KNearestInto(int(core.UberX), sub.pickup, dispatchCandK, buf)
		sub.ewtN = uint8(len(near))
		for i, nbr := range near {
			sub.ewt[i] = nbr.Slot
		}
	}
	vt := core.VehicleType(sub.vt)
	sub.poolCand = -1
	if vt == core.UberPOOL {
		sub.poolCand = w.grid.FirstWithin(poolLayer, sub.pickup, poolMatchRadius)
	}
	sub.candAll = w.grid.Len(int(vt)) <= dispatchCandK
	near := w.grid.KNearestInto(int(vt), sub.pickup, dispatchCandK, buf)
	sub.candN = uint8(len(near))
	for i, nbr := range near {
		sub.cand[i] = slotDist{slot: nbr.Slot, dist: nbr.Dist}
	}
}

// commitEWT resolves the request's sampled UberX wait against drivers
// booked by earlier requests this tick.
func (w *World) commitEWT(sub *subPlan) float64 {
	for _, slot := range sub.ewt[:sub.ewtN] {
		if DriverState(w.fleet.state[slot]) == StateIdle {
			return w.ewtFrom(slot, sub.pickup)
		}
	}
	if !sub.ewtAll {
		w.knnBuf = w.grid.KNearestInto(int(core.UberX), sub.pickup, 1, w.knnBuf)
		if len(w.knnBuf) > 0 {
			return w.ewtFrom(w.knnBuf[0].Slot, sub.pickup)
		}
	}
	return maxEWTSeconds
}

// commitSub applies one planned request to the world, in request order.
func (w *World) commitSub(sub *subPlan) {
	f := &w.fleet
	vt := core.VehicleType(sub.vt)
	area := int(sub.area)
	pickup := sub.pickup
	if area >= 0 {
		st := &w.areaStats[area]
		st.LatentDemand++
		// The engine's EWT feature is demand-weighted: the wait a rider
		// at this pickup point would experience. (Sampling at area
		// centroids instead systematically inflates areas whose demand
		// clusters off-center.)
		st.EWTSum += w.commitEWT(sub)
		st.EWTN++
	}

	// UberPOOL first tries to share an in-progress POOL trip passing
	// nearby (§2: "Uber will assign multiple passengers to each
	// vehicle"); pool seats are cheap, so elasticity is skipped.
	if vt == core.UberPOOL && w.commitPoolJoin(sub) {
		return
	}

	// Select the driver and the price multiplier the passenger faces.
	slot := int32(-1)
	var price float64
	switch w.market {
	case MarketDriverSet:
		// Sidecar-style market (§8): passengers see the nearby drivers'
		// self-set prices and take the cheapest. The still-idle prefix of
		// the phase-start list is the live 4-nearest; only an exhausted
		// list that didn't cover the product needs the live re-query.
		consider := func(cslot int32, dist float64) {
			if dist > dispatchRadius {
				return
			}
			if slot < 0 || f.priceFactor[cslot] < f.priceFactor[slot] {
				slot = cslot
			}
		}
		nv := 0
		for i := 0; i < int(sub.candN) && nv < 4; i++ {
			c := sub.cand[i]
			if DriverState(f.state[c.slot]) != StateIdle {
				continue
			}
			nv++
			consider(c.slot, c.dist)
		}
		if nv < 4 && !sub.candAll {
			slot = -1
			w.knnBuf = w.grid.KNearestInto(int(vt), pickup, 4, w.knnBuf)
			for _, nbr := range w.knnBuf {
				consider(nbr.Slot, nbr.Dist)
			}
		}
		if slot >= 0 {
			price = f.priceFactor[slot]
		}
	default:
		// Centralized dispatch: the quickest of the nearest idle cars
		// within range.
		slot = w.pickCandidate(sub)
		price = 1
		if vt.Surgeable() {
			price = w.surgeWeight(pickup)
		}
	}

	// Price elasticity: high prices scare some passengers off entirely
	// (§5.5's large negative demand effect). Applies to either market.
	if vt.Surgeable() && price > 1 {
		dropP := w.profile.Elasticity * (price - 1)
		if dropP > 0.95 {
			dropP = 0.95
		}
		if sub.uElastic < dropP {
			w.TotalPricedOut++
			if area >= 0 {
				w.areaStats[area].PricedOut++
			}
			return
		}
	}

	if slot < 0 {
		w.TotalUnmet++
		if area >= 0 {
			w.areaStats[area].Unfulfilled++
		}
		return
	}

	// Book the driver: the car disappears from the map.
	if w.market == MarketDriverSet && w.now-f.idleSince[slot] < 300 {
		// Booked within 5 minutes of becoming available: demand is hot,
		// raise the asking price (win-stay).
		f.priceFactor[slot] = clampFactor(f.priceFactor[slot] + 0.1)
	}
	f.state[slot] = uint8(StateEnRoute)
	f.pickup[slot] = pickup
	f.dest[slot] = sub.dest
	f.destDrop[slot] = true
	f.stops[slot] = nil
	f.poolRiders[slot] = 1
	w.grid.Remove(slot)
	w.TotalPickups++
	w.priceSum += price
	w.priceSumSq += price * price
	w.priceN++
	w.settleFare(slot, pickup, sub.dest, price, area, w.market != MarketDriverSet && vt.Surgeable())
	if area >= 0 {
		w.areaStats[area].Pickups++
	}
	w.emit(bus.KindTripDispatch, f.session[slot], area, price, vt.String())
}

// pickCandidate is centralized dispatch's choice: among up to refineK
// still-idle straight-line-nearest candidates within the dispatch radius,
// the one the movement model gets to the pickup soonest (ties: the
// straight-line-nearest, since it is considered first), or -1. Runs in the
// serial commit.
func (w *World) pickCandidate(sub *subPlan) int32 {
	f := &w.fleet
	k := w.mv.refineK()
	best := int32(-1)
	var bestETA float64
	consider := func(slot int32, dist float64) {
		if dist > dispatchRadius {
			return
		}
		_, eta := w.mv.trip(f.pos[slot], sub.pickup)
		if best < 0 || eta < bestETA {
			best, bestETA = slot, eta
		}
	}
	n := 0
	for i := 0; i < int(sub.candN) && n < k; i++ {
		c := sub.cand[i]
		if DriverState(f.state[c.slot]) != StateIdle {
			continue
		}
		n++
		consider(c.slot, c.dist)
	}
	if best < 0 && !sub.candAll {
		// No in-radius candidate survived from the phase-start list — either
		// earlier bookings this tick took them all, or the only idle entries
		// left sit beyond the dispatch radius. Re-query the live grid.
		// (Gating on n == 0 would skip the re-query whenever an
		// out-of-radius idle candidate inflated the count.)
		w.knnBuf = w.grid.KNearestInto(int(sub.vt), sub.pickup, k, w.knnBuf)
		for _, nbr := range w.knnBuf {
			consider(nbr.Slot, nbr.Dist)
		}
	}
	return best
}

// poolMatchRadius is how close an in-progress POOL trip must pass for a
// new rider to share it.
const poolMatchRadius = 800.0

// poolLayer is the grid layer of the joinable POOL trips, after the
// products' idle layers.
const poolLayer = core.NumVehicleTypes

// joinableSlot reports whether the slot is a single-rider POOL trip a new
// rider could still join.
func (w *World) joinableSlot(s int32) bool {
	f := &w.fleet
	return f.live[s] && core.VehicleType(f.typ[s]) == core.UberPOOL &&
		DriverState(f.state[s]) == StateOnTrip && f.poolRiders[s] == 1 &&
		len(f.stops[s]) == 0 && f.destDrop[s]
}

// commitPoolJoin resolves a request's precomputed join candidate: if an
// earlier request this tick took it, re-probe the live index (the
// joinable set only shrinks during dispatch, so the live minimum-slot
// probe is exact).
func (w *World) commitPoolJoin(sub *subPlan) bool {
	cand := sub.poolCand
	if cand >= 0 && !w.joinableSlot(cand) {
		cand = w.grid.FirstWithin(poolLayer, sub.pickup, poolMatchRadius)
	}
	if cand < 0 {
		return false
	}
	w.applyPoolJoin(cand, sub.pickup, sub.poolDest, int(sub.area))
	return true
}

// applyPoolJoin diverts the trip: the new rider is picked up first, then
// both drop-offs are served.
func (w *World) applyPoolJoin(s int32, pickup, joinDest geo.Point, area int) {
	f := &w.fleet
	f.stops[s] = []PoolStop{
		{Pos: f.dest[s], Drop: true},
		{Pos: joinDest, Drop: true},
	}
	f.dest[s] = pickup
	f.destDrop[s] = false
	f.poolRiders[s] = 2
	w.grid.Remove(s)
	w.TotalPickups++
	w.TotalPoolJoins++
	w.priceSum++ // pool seats ride at multiplier 1
	w.priceSumSq++
	w.priceN++
	w.settleFare(s, pickup, joinDest, 1, area, false)
	if area >= 0 {
		w.areaStats[area].Pickups++
	}
	w.emit(bus.KindTripDispatch, f.session[s], area, 1, "POOL/join")
}
