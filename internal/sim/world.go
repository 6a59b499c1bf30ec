package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/road"
)

// TickSeconds is the simulation step: 5 s, the ping cadence of the Client
// app. A measurement campaign pings once per Step, so its ping period is
// this step.
const TickSeconds = 5

// Config configures a World.
type Config struct {
	Profile *CityProfile
	Seed    int64
	// StartTime is the initial simulation time (seconds since Monday
	// midnight). Defaults to 0.
	StartTime int64
	// Workers is how many goroutines the phase-parallel portions of Step
	// (movement/cruise, spawn and dispatch precompute, window stats) fan
	// out over; 0 means runtime.GOMAXPROCS(0). Results are bit-for-bit
	// identical for every worker count: parallel phases draw from
	// per-(seed, tick, shard) RNG streams and commit through ordered
	// per-shard buffers (see parallel.go).
	Workers int
	// Road selects street-network movement (see road.go). Nil with
	// Profile.RoadNetwork set builds the city's deterministic network,
	// whose congestion the world commits itself every tick; nil otherwise
	// keeps euclidean movement. A non-nil Road belongs to the caller, who
	// may share it between worlds (two services on the same streets) and
	// commits its congestion once per tick after every world has tallied
	// its loads: the world never does.
	Road *road.Network
}

// Market selects how prices form and how drivers answer them. A pricing
// engine sets it when it installs itself; driver-set pricing has no
// engine, so its caller sets it (see SetMarket).
type Market uint8

const (
	// MarketSurge is the paper's §5 market: the surge provider's multiplier
	// scales every surgeable fare.
	MarketSurge Market = iota
	// MarketAdditive prices surgeable full fares as base + a USD pip the
	// driver keeps whole (Garg & Nazerzadeh). The pip is the multiplier's
	// excess over 1 times the nominal UberX quote, so the provider's
	// effective multiplier carries it.
	MarketAdditive
	// MarketWithholding is surge pricing plus Schröder et al.'s strategic
	// drivers, who log off below a personal threshold (withholding.go).
	MarketWithholding
	// MarketDriverSet is Sidecar's market (§8): every driver sets their own
	// price and passengers take the cheapest nearby.
	MarketDriverSet
)

// WindowStats aggregates one surge area's activity over the trailing
// window; the surge engine consumes and resets it every five minutes.
type WindowStats struct {
	Ticks        int
	IdleCarTicks float64 // Σ idle cars per tick (surgeable products)
	BusyCarTicks float64 // Σ en-route + on-trip cars per tick
	Pickups      int     // fulfilled requests, i.e. "deaths" by booking
	LatentDemand int     // quantity demanded incl. priced-out + unfulfilled
	PricedOut    int     // requests abandoned due to surge
	Unfulfilled  int     // requests with no reachable driver
	EWTSum       float64 // Σ UberX EWT sampled at each request's pickup point
	EWTN         int
}

// AvgIdle returns the average number of visible (idle) cars in the area.
func (w WindowStats) AvgIdle() float64 {
	if w.Ticks == 0 {
		return 0
	}
	return w.IdleCarTicks / float64(w.Ticks)
}

// AvgBusy returns the average number of booked cars in the area.
func (w WindowStats) AvgBusy() float64 {
	if w.Ticks == 0 {
		return 0
	}
	return w.BusyCarTicks / float64(w.Ticks)
}

// AvgEWT returns the average sampled EWT in seconds (0 if unsampled).
func (w WindowStats) AvgEWT() float64 {
	if w.EWTN == 0 {
		return 0
	}
	return w.EWTSum / float64(w.EWTN)
}

// World is the simulated city. It is not safe for concurrent use; the
// layers above (api.Service) serialize access.
//
// Driver state lives in a struct-of-arrays fleet (see fleet.go): hot
// per-driver fields are flat columns indexed by slot, recycled through a
// free list. Every slot-keyed structure — the idle grid's per-product
// layers, the joinable-POOL layer — keys by slot, so there is no id→index
// map on any hot path.
type World struct {
	cfg     Config
	profile *CityProfile
	rng     *rand.Rand
	proj    *geo.Projection

	now  int64
	tick int64

	fleet  fleet
	nextID int64

	// grid indexes the idle cars, one layer per product (layer vt): these
	// are the cars a client can see. Its last layer, poolLayer, indexes
	// joinable POOL trips (on-trip, single rider, no queued stops) so the
	// shared-ride matcher is a radius probe instead of a full fleet scan.
	// No car is idle and joinable at once, so the layers share one slot
	// table.
	grid *geo.SlotGrid

	areas      []geo.Polygon
	areaIndex  *geo.AreaIndex
	areaStats  []WindowStats
	surgeOf    func(area int) float64 // provided by the surge engine
	surgeCache []float64              // per-area multiplier, refreshed each tick
	market     Market                 // how prices form; see SetMarket
	fleetCDF   []float64              // cumulative fleet shares
	demandCDF  []float64              // cumulative demand shares
	hotspotCDF []float64

	meanSessionSec float64
	effSessionSec  float64 // fleet-wide expected session length

	// demand shocks: exogenous demand multipliers per area (concerts,
	// storms, "last call" surges beyond the diurnal curve).
	shocks []demandShock

	// suspended drivers (the §8 collusion scenario: drivers go offline
	// together to starve supply, then return once surge rises).
	suspended []suspendedDriver

	// lifetime counters (ground truth for tests and validation).
	// Spawned/Offline count organic session starts and deaths only;
	// coordinated-logoff suspension cycles (ForceOffline → return) are
	// tracked separately so they don't skew churn- and lifespan-derived
	// figures (Fig 7).
	TotalSpawned   int64
	TotalOffline   int64
	TotalSuspended int64
	TotalResumed   int64
	TotalWithheld  int64
	TotalPickups   int64
	TotalDropoffs  int64
	TotalPricedOut int64
	TotalUnmet     int64
	TotalPoolJoins int64

	// price multipliers paid by fulfilled passengers (surge multiplier
	// or the chosen driver's PriceFactor, by market).
	priceSum, priceSumSq float64
	priceN               int64

	// Economics (§2): upfront fares, Uber's 20% commission, drivers' 80%.
	fares         map[core.VehicleType]core.FareSchedule
	FareVolume    float64 // total passenger spend, USD
	CommissionUSD float64 // Uber's cut
	// AreaFares accumulates passenger spend by pickup area (lifetime,
	// never reset — the attack experiment diffs it across a window).
	AreaFares []float64

	// workers is the resolved Config.Workers; the buffers below are the
	// reusable per-shard commit buffers and per-phase scratch of the
	// parallel tick, grown once to steady state and then allocation-free.
	workers    int
	moveOps    []shardOps
	workerMv   []mover        // the movement phase's mover per worker: scratch, see runShards
	moveFn     func(int, int) // w.moveShard, bound once so the per-tick fan-out allocates no closure
	statParts  [][]areaCount
	subPlans   []subPlan
	spawnPlans []spawnPlan
	knnBuf     []geo.SlotNeighbor

	// mv is the movement model (see mover.go), chosen once in NewWorld. It
	// serves the serial phases (dispatch, fares, EWT); each movement worker
	// drives with a fork of it in workerMv.
	mv mover

	// snap is what Snapshot remembers between builds (see snapshot.go).
	snap snapBuilder

	// events receives lifecycle/trip events (see SetEventSink); nil when
	// nothing listens. Only serial phases call it.
	events func(bus.Event)

	// nil-safe metric handles; zero until Instrument is called. mUnmet
	// mirrors TotalUnmet by delta so Prometheus sees a monotonic series.
	hStep     *obs.Histogram
	hPhase    [numPhases]*obs.Histogram
	gDrivers  *obs.Gauge
	mUnmet    *obs.Counter
	lastUnmet int64
}

// Step phases, in execution order, for per-phase timing.
const (
	phaseSpawn    = iota // spawnArrivals + resumeSuspended
	phaseMove            // parallel movement/cruise + serial commit
	phaseDispatch        // generateRequests
	phaseStats           // accumulateStats + expireShocks
	numPhases
)

var phaseNames = [numPhases]string{"spawn", "move", "dispatch", "stats"}

// phaseLabelSets are prebuilt pprof label sets so CPU profiles attribute
// samples to sim phases (complementing sim_phase_duration_seconds).
var phaseLabelSets = func() [numPhases]pprof.LabelSet {
	var ls [numPhases]pprof.LabelSet
	for i := range phaseNames {
		ls[i] = pprof.Labels("sim_phase", phaseNames[i])
	}
	return ls
}()

// Instrument wires the world's metrics into reg:
//
//	sim_step_duration_seconds   wall-clock cost of one tick
//	sim_phase_duration_seconds{phase}  per-phase breakdown of a tick
//	sim_drivers_online          current online driver count
//	sim_requests_unmet_total    requests no car could serve (supply shortage)
//	sim_snapshot_{cars_reencoded,cells_rebuilt}_total  what Snapshot builds
//	made: idle cars a build froze, non-empty grid cells
func (w *World) Instrument(reg *obs.Registry) {
	w.hStep = reg.Histogram("sim_step_duration_seconds", nil)
	for i := range w.hPhase {
		w.hPhase[i] = reg.Histogram("sim_phase_duration_seconds", nil, obs.L("phase", phaseNames[i]))
	}
	w.gDrivers = reg.Gauge("sim_drivers_online")
	w.mUnmet = reg.Counter("sim_requests_unmet_total")
	w.lastUnmet = w.TotalUnmet
	w.snap.mCars = reg.Counter("sim_snapshot_cars_reencoded_total")
	w.snap.mCells = reg.Counter("sim_snapshot_cells_rebuilt_total")
}

// CommissionRate is Uber's share of each fare (§2).
const CommissionRate = 0.20

// PriceStats returns the mean and standard deviation of the price
// multiplier fulfilled passengers paid, and the sample count.
func (w *World) PriceStats() (mean, std float64, n int64) {
	if w.priceN == 0 {
		return 0, 0, 0
	}
	mean = w.priceSum / float64(w.priceN)
	v := w.priceSumSq/float64(w.priceN) - mean*mean
	if v > 0 {
		std = math.Sqrt(v)
	}
	return mean, std, w.priceN
}

type demandShock struct {
	area   int
	factor float64
	until  int64
}

type suspendedDriver struct {
	vt       core.VehicleType
	pos      geo.Point
	returnAt int64
}

// movement and dispatch constants.
const (
	idleSpeed        = 3.0    // m/s while cruising
	dispatchOverhead = 75.0   // seconds of matching + acceptance latency
	manhattanFactor  = 1.4    // street-grid detour over straight line
	maxEWTSeconds    = 2580.0 // 43 minutes, the paper's observed maximum
	dispatchRadius   = 2200.0 // max straight-line pickup distance, meters
	tripStopSeconds  = 120.0  // fixed per-trip boarding/alighting time
)

// NewWorld builds a world for the profile with an initial driver
// population appropriate for the start hour.
func NewWorld(cfg Config) *World {
	if cfg.Profile == nil {
		panic("sim: Config.Profile is required")
	}
	p := cfg.Profile
	ownRoad := cfg.Road == nil && p.RoadNetwork
	if ownRoad {
		// The network is keyed by city name only, never the sim seed:
		// every world of a city drives the same streets.
		name := p.Name
		if p.RoadName != "" {
			name = p.RoadName
		}
		cfg.Road = road.ForProfile(name, p.Region)
	}
	w := &World{
		cfg:     cfg,
		profile: p,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		proj:    geo.NewProjection(p.Origin),
		now:     cfg.StartTime,
		areas:   p.SurgeAreas(),
		surgeOf: func(int) float64 { return 1 },
	}
	w.workers = cfg.Workers
	if w.workers <= 0 {
		w.workers = runtime.GOMAXPROCS(0)
	}
	w.moveFn = w.moveShard
	w.mv = plane{w}
	if cfg.Road != nil {
		w.mv = newStreet(w, cfg.Road, ownRoad)
	}
	// The area raster is 4× finer than the driver grid: every driver pays
	// an area lookup per tick in the stats pass, and only raster cells a
	// polygon edge crosses fall back to exact point-in-polygon tests, so a
	// thinner mixed band buys measurable tick time for a one-off build.
	w.areaIndex = geo.NewAreaIndex(w.areas, gridCellMeters/4)
	w.areaStats = make([]WindowStats, len(w.areas))
	w.fares = core.DefaultFares()
	w.AreaFares = make([]float64, len(w.areas))
	w.grid = geo.NewSlotGrid(p.Region, gridCellMeters, poolLayer+1)
	w.fleetCDF = cdfOf(NormalizedShares(p.FleetShare))
	w.demandCDF = cdfOf(NormalizedShares(p.DemandShare))
	w.hotspotCDF = make([]float64, len(p.Hotspots))
	var hs float64
	for i, h := range p.Hotspots {
		hs += h.Weight
		w.hotspotCDF[i] = hs
	}
	for i := range w.hotspotCDF {
		w.hotspotCDF[i] /= hs
	}
	w.meanSessionSec = p.MeanSessionMinutes * 60
	// Expected session length across the fleet: the lognormal draw has
	// mean = median·exp(σ²/2), and luxury products run longer sessions.
	// spawnArrivals divides by this to hold the population at its target.
	luxShare := w.fleetShareOf(core.UberBLACK) + w.fleetShareOf(core.UberSUV)
	w.effSessionSec = w.meanSessionSec *
		((1 - luxShare) + luxShare*p.LuxurySessionFactor) *
		math.Exp(0.7*0.7/2)

	// Seed the initial population at the steady-state size for the start
	// hour, with sessions already partially elapsed.
	target := int(float64(p.PeakDrivers) * p.SupplyDiurnal[HourOfDay(w.now)])
	f := &w.fleet
	for i := 0; i < target; i++ {
		s := w.spawnDriver()
		// Spread remaining session time as if drivers came online earlier.
		elapsed := int64(w.rng.Float64() * w.sessionLengthRand(w.rng, core.VehicleType(f.typ[s])))
		f.offlineAt[s] -= elapsed
		if f.offlineAt[s] <= w.now {
			f.offlineAt[s] = w.now + int64(w.rng.Float64()*w.meanSessionSec*0.5) + 60
		}
	}
	return w
}

// fleetShareOf returns the normalized fleet share of a product.
func (w *World) fleetShareOf(vt core.VehicleType) float64 {
	prev := 0.0
	if int(vt) > 0 {
		prev = w.fleetCDF[int(vt)-1]
	}
	return w.fleetCDF[int(vt)] - prev
}

func cdfOf(shares []float64) []float64 {
	out := make([]float64, len(shares))
	var s float64
	for i, v := range shares {
		s += v
		out[i] = s
	}
	return out
}

// Profile returns the city profile the world was built from.
func (w *World) Profile() *CityProfile { return w.profile }

// Projection returns the world's lat/lng projection.
func (w *World) Projection() *geo.Projection { return w.proj }

// Areas returns the surge-area polygons.
func (w *World) Areas() []geo.Polygon { return w.areas }

// AreaIndex returns the rasterized point-in-area index over the surge
// areas; it answers exactly what AreaOf answers, in O(1).
func (w *World) AreaIndex() *geo.AreaIndex { return w.areaIndex }

// Now returns the current simulation time in seconds.
func (w *World) Now() int64 { return w.now }

// SetSurgeProvider registers the function used to look up the current
// surge multiplier for an area; the surge engine installs itself here.
func (w *World) SetSurgeProvider(f func(area int) float64) {
	if f != nil {
		w.surgeOf = f
	}
}

// SetMarket selects the world's market (MarketSurge until set).
func (w *World) SetMarket(m Market) { w.market = m }

// refreshSurgeCache samples the surge provider once per area per tick.
// The multipliers are interval-quantized by the engine, so within one
// tick the cached value is exact — and the parallel spawn/dispatch
// precompute can read it without re-entering the provider concurrently.
func (w *World) refreshSurgeCache() {
	if cap(w.surgeCache) < len(w.areas) {
		w.surgeCache = make([]float64, len(w.areas))
	}
	w.surgeCache = w.surgeCache[:len(w.areas)]
	for i := range w.surgeCache {
		w.surgeCache[i] = w.surgeOf(i)
	}
}

// InjectDemandShock multiplies request arrivals in an area by factor for
// the given duration — the simulator's stand-in for concerts, storms, and
// the other exogenous spikes that make surge noisy.
func (w *World) InjectDemandShock(area int, factor float64, duration int64) {
	w.shocks = append(w.shocks, demandShock{area: area, factor: factor, until: w.now + duration})
}

func (w *World) shockFactor(area int) float64 {
	f := 1.0
	for _, s := range w.shocks {
		if s.area == area && w.now < s.until {
			f *= s.factor
		}
	}
	return f
}

// StreetSpeed returns the driving speed in m/s at time t: slower during
// rush hours, faster overnight.
func StreetSpeed(t int64) float64 {
	h := HourOfDay(t)
	switch {
	case Rush(h) && !Weekend(t):
		return 4.2
	case h >= 22 || h < 6:
		return 8.0
	default:
		return 6.0
	}
}

// sessionLengthRand draws a session length in seconds for a product;
// luxury products (BLACK, SUV) run longer sessions, as Fig 7 shows.
func (w *World) sessionLengthRand(rng *rand.Rand, vt core.VehicleType) float64 {
	mean := w.meanSessionSec
	if vt == core.UberBLACK || vt == core.UberSUV {
		mean *= w.profile.LuxurySessionFactor
	}
	// Lognormal with sigma 0.7 around the target median.
	return mean * math.Exp(rng.NormFloat64()*0.7)
}

// sampleShareRand picks an index from a cumulative share vector.
func sampleShareRand(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	for i, c := range cdf {
		if u <= c {
			return i
		}
	}
	return len(cdf) - 1
}

// samplePlaceRand draws a location from the hotspot mixture (75%) or
// uniformly from the region (25%), clamped into the region. The serial
// phases pass the world stream; shard workers pass their own.
func (w *World) samplePlaceRand(rng *rand.Rand) geo.Point {
	r := w.profile.Region
	if len(w.profile.Hotspots) == 0 || rng.Float64() < 0.25 {
		return geo.Point{
			X: r.Min.X + rng.Float64()*r.Width(),
			Y: r.Min.Y + rng.Float64()*r.Height(),
		}
	}
	h := w.profile.Hotspots[sampleShareRand(rng, w.hotspotCDF)]
	p := geo.Point{
		X: h.Pos.X + rng.NormFloat64()*h.Radius,
		Y: h.Pos.Y + rng.NormFloat64()*h.Radius,
	}
	return r.Clamp(p)
}

// addDriver registers a fresh online session of the product at pos,
// drawing its logon state from the world stream, and returns its slot.
// Both seed spawns and suspended-driver resumes go through here, so a
// resumed driver gets the same PriceFactor/idleSince initialization as
// any new logon.
func (w *World) addDriver(vt core.VehicleType, pos geo.Point) int32 {
	var pl spawnPlan
	w.drawLogon(w.rng, vt, pos, &pl)
	return w.logon(&pl)
}

// spawnDriver brings a new driver online from the world stream (used by
// NewWorld's seed population; steady-state arrivals go through the
// parallel spawnArrivals) and returns its slot.
func (w *World) spawnDriver() int32 {
	vt := core.VehicleType(sampleShareRand(w.rng, w.fleetCDF))
	s := w.addDriver(vt, w.samplePlaceRand(w.rng))
	w.TotalSpawned++
	return s
}

// removeSlot takes a session offline: out of the grid, out of the
// snapshot, slot back on the free list. Callers count the departure
// themselves: an organic session death is TotalOffline, a coordinated
// logoff is TotalSuspended.
func (w *World) removeSlot(s int32) {
	w.grid.Remove(s)
	w.fleet.freeSlot(s)
}

// Step advances the world by one tick. Each phase runs under a pprof
// label so CPU profiles break down by sim phase.
func (w *World) Step() {
	instrumented := w.hStep != nil
	var stepStart, phaseStart time.Time
	if instrumented {
		stepStart = time.Now()
		phaseStart = stepStart
	}
	dt := float64(TickSeconds)
	w.now += TickSeconds
	w.tick++
	w.refreshSurgeCache()

	ctx := context.Background()
	pprof.Do(ctx, phaseLabelSets[phaseSpawn], func(context.Context) {
		w.spawnArrivals(dt)
		w.resumeSuspended()
		w.applyWithholding()
	})
	if instrumented {
		phaseStart = w.observePhase(phaseSpawn, phaseStart)
	}
	pprof.Do(ctx, phaseLabelSets[phaseMove], func(context.Context) {
		w.moveDrivers()
	})
	if instrumented {
		phaseStart = w.observePhase(phaseMove, phaseStart)
	}
	pprof.Do(ctx, phaseLabelSets[phaseDispatch], func(context.Context) {
		w.generateRequests(dt)
	})
	if instrumented {
		phaseStart = w.observePhase(phaseDispatch, phaseStart)
	}
	pprof.Do(ctx, phaseLabelSets[phaseStats], func(context.Context) {
		w.mv.tally()
		w.accumulateStats()
		w.expireShocks()
	})
	if instrumented {
		w.observePhase(phaseStats, phaseStart)
	}

	if instrumented {
		w.hStep.ObserveDuration(time.Since(stepStart))
		w.gDrivers.Set(float64(w.fleet.n))
		w.mUnmet.Add(w.TotalUnmet - w.lastUnmet)
		w.lastUnmet = w.TotalUnmet
	}
}

// observePhase records one phase's duration and returns the next phase's
// start time.
func (w *World) observePhase(phase int, since time.Time) time.Time {
	now := time.Now()
	w.hPhase[phase].ObserveDuration(now.Sub(since))
	return now
}

// ForceOffline takes up to n idle drivers of the product inside the surge
// area offline immediately and schedules their return after duration
// seconds — the coordinated-logoff manipulation the paper's discussion
// warns the black-box design invites. It returns how many drivers
// complied (there may be fewer than n idle in the area).
func (w *World) ForceOffline(vt core.VehicleType, area int, n int, duration int64) int {
	taken := 0
	f := &w.fleet
	for s := int32(0); int(s) < f.high && taken < n; s++ {
		if !f.live[s] || core.VehicleType(f.typ[s]) != vt || DriverState(f.state[s]) != StateIdle {
			continue
		}
		if w.areaIndex.Find(f.pos[s]) != area {
			continue
		}
		w.suspended = append(w.suspended, suspendedDriver{
			vt: vt, pos: f.pos[s], returnAt: w.now + duration,
		})
		w.emitSlot(bus.KindDriverSuspend, s, float64(duration), vt.String())
		w.removeSlot(s)
		w.TotalSuspended++
		taken++
	}
	return taken
}

// resumeSuspended brings colluding drivers back online as fresh sessions
// (a re-login gets a new randomized public ID, like any new session).
func (w *World) resumeSuspended() {
	if len(w.suspended) == 0 {
		return
	}
	live := w.suspended[:0]
	for _, s := range w.suspended {
		if w.now < s.returnAt {
			live = append(live, s)
			continue
		}
		slot := w.addDriver(s.vt, s.pos)
		w.TotalResumed++
		w.emitSlot(bus.KindDriverResume, slot, 0, s.vt.String())
	}
	w.suspended = live
}

// Run advances the world until time end.
func (w *World) Run(end int64) {
	for w.now < end {
		w.Step()
	}
}

func (w *World) expireShocks() {
	live := w.shocks[:0]
	for _, s := range w.shocks {
		if w.now < s.until {
			live = append(live, s)
		}
	}
	w.shocks = live
}

func (w *World) surgeWeight(p geo.Point) float64 {
	a := w.areaIndex.Find(p)
	if a < 0 || a >= len(w.surgeCache) {
		return 1
	}
	return w.surgeCache[a]
}

// settleFare charges the passenger the upfront fare for the trip estimate
// and splits it between the driver (80%) and the platform (20%).
// surgePriced marks trips that carry the dynamic price signal (surgeable
// product, full-fare booking): in MarketAdditive those trips are priced
// base + pip, with the driver keeping the entire pip on top of the usual
// 80% of base — the Garg & Nazerzadeh payout structure.
func (w *World) settleFare(slot int32, pickup, dest geo.Point, multiplier float64, area int, surgePriced bool) {
	meters, seconds := w.mv.trip(pickup, dest)
	seconds += tripStopSeconds
	sched := w.fares[core.VehicleType(w.fleet.typ[slot])]
	if w.market == MarketAdditive && surgePriced && area >= 0 {
		base := sched.Fare(meters, seconds, 1)
		pip := (w.surgeCache[area] - 1) * w.fares[core.UberX].Quote(1)
		fare := base + pip
		w.FareVolume += fare
		w.CommissionUSD += base * CommissionRate
		w.fleet.earned[slot] += base*(1-CommissionRate) + pip
		w.AreaFares[area] += fare
		return
	}
	fare := sched.Fare(meters, seconds, multiplier)
	w.FareVolume += fare
	w.CommissionUSD += fare * CommissionRate
	w.fleet.earned[slot] += fare * (1 - CommissionRate)
	if area >= 0 {
		w.AreaFares[area] += fare
	}
}

// clampFactor bounds a driver-set price factor to a plausible market
// range.
func clampFactor(f float64) float64 {
	if f < 0.7 {
		return 0.7
	}
	if f > 2.5 {
		return 2.5
	}
	return f
}

// areaCount is one shard's per-area idle/busy tally.
type areaCount struct{ idle, busy int32 }

// accumulateStats samples per-area idle/busy counts for the surge
// engine's trailing window. The tally is parallel over driver shards;
// the per-shard integer counts merge into one exact total regardless of
// shard or worker order, so the accumulated floats match the serial sum
// bit for bit. The per-shard buffers persist across ticks.
func (w *World) accumulateStats() {
	if len(w.areas) == 0 {
		return
	}
	f := &w.fleet
	shards := numShards(f.high)
	for len(w.statParts) < shards {
		w.statParts = append(w.statParts, nil)
	}
	tally := func(_, s int) {
		counts := w.statParts[s]
		if len(counts) != len(w.areas) {
			counts = make([]areaCount, len(w.areas))
			w.statParts[s] = counts
		} else {
			for i := range counts {
				counts[i] = areaCount{}
			}
		}
		lo, hi := shardBounds(s, f.high)
		for i := lo; i < hi; i++ {
			if !f.live[i] || !core.VehicleType(f.typ[i]).Surgeable() {
				continue
			}
			a := w.areaIndex.Find(f.pos[i])
			if a < 0 {
				continue
			}
			if DriverState(f.state[i]) == StateIdle {
				counts[a].idle++
			} else {
				counts[a].busy++
			}
		}
	}
	w.runShards(shards, tally)
	for i := range w.areas {
		var idle, busy int32
		for s := 0; s < shards; s++ {
			idle += w.statParts[s][i].idle
			busy += w.statParts[s][i].busy
		}
		st := &w.areaStats[i]
		st.Ticks++
		st.IdleCarTicks += float64(idle)
		st.BusyCarTicks += float64(busy)
	}
}

// ConsumeWindow returns and resets the accumulated stats for an area; the
// surge engine calls this at each 5-minute update.
func (w *World) ConsumeWindow(area int) WindowStats {
	st := w.areaStats[area]
	w.areaStats[area] = WindowStats{}
	return st
}

// EWT returns the estimated wait time in seconds for a product at a
// location: dispatch overhead plus the movement model's drive time of the
// nearest idle car, capped at the paper's observed 43-minute maximum.
func (w *World) EWT(vt core.VehicleType, pos geo.Point) float64 {
	w.knnBuf = w.grid.KNearestInto(int(vt), pos, 1, w.knnBuf)
	if len(w.knnBuf) == 0 {
		return maxEWTSeconds
	}
	return w.ewtFrom(w.knnBuf[0].Slot, pos)
}

// NearestCars returns up to k idle cars of the product nearest to pos, as
// pingClient would render them: randomized session IDs, lat/lng positions,
// and recent path vectors.
func (w *World) NearestCars(vt core.VehicleType, pos geo.Point, k int) []core.CarView {
	f := &w.fleet
	w.knnBuf = w.grid.KNearestInto(int(vt), pos, k, w.knnBuf)
	out := make([]core.CarView, 0, len(w.knnBuf))
	var pts []geo.Point
	for _, n := range w.knnBuf {
		s := n.Slot
		pts = f.pathPoints(s, pts[:0])
		path := make([]geo.LatLng, len(pts))
		for i, p := range pts {
			path[i] = w.proj.ToLatLng(p)
		}
		out = append(out, core.CarView{
			ID:   f.session[s],
			Pos:  w.proj.ToLatLng(f.pos[s]),
			Path: path,
		})
	}
	return out
}

// CountByState returns how many online drivers of the product are in each
// state; ground truth for validation and tests.
func (w *World) CountByState(vt core.VehicleType) (idle, enroute, ontrip int) {
	f := &w.fleet
	for s := 0; s < f.high; s++ {
		if !f.live[s] || core.VehicleType(f.typ[s]) != vt {
			continue
		}
		switch DriverState(f.state[s]) {
		case StateIdle:
			idle++
		case StateEnRoute:
			enroute++
		case StateOnTrip:
			ontrip++
		}
	}
	return
}

// OnlineDrivers returns the number of online drivers across all products.
func (w *World) OnlineDrivers() int { return w.fleet.n }

// EachDriver visits every online driver in deterministic (slot) order.
// The *Driver passed to fn is a view materialized from the fleet columns
// and reused between calls: callers that retain driver state beyond the
// callback must copy the struct.
func (w *World) EachDriver(fn func(d *Driver)) {
	f := &w.fleet
	var d Driver
	for s := int32(0); int(s) < f.high; s++ {
		if !f.live[s] {
			continue
		}
		f.view(s, &d)
		fn(&d)
	}
}

// poisson draws a Poisson-distributed count with the given mean using
// Knuth's method (the means here are well below 30 per tick).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k // guard against pathological means
		}
	}
}
