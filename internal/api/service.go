// Package api implements the emulated Uber service surface: the
// pingClient stream the smartphone app consumes every five seconds, and
// the estimates/price + estimates/time HTTP API endpoints with their
// 1,000 requests/hour/account rate limit (§3.2, §3.3).
//
// Service implements core.Service in-process (how the experiment harness
// drives it, at simulation speed); Server exposes the same service over
// HTTP for cmd/uberd.
package api

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/surge"
	"repro/internal/wire"
)

// RateLimitPerHour is Uber's documented API rate limit per user account.
const RateLimitPerHour = 1000

// Errors returned by the service.
var (
	ErrUnknownAccount = errors.New("api: unknown account")
	ErrRateLimited    = errors.New("api: rate limit exceeded")
	ErrOutOfService   = errors.New("api: location outside service region")
)

// account tracks one registered user's API usage.
type account struct {
	hourBucket int64
	calls      int
}

// queryState is one published epoch of the lock-free query path: an
// immutable world snapshot paired with the surge engine's immutable read
// view, both taken at the end of the same tick. A queryState is never
// reused, so its address names one epoch for good.
type queryState struct {
	world *sim.Snapshot
	surge *surge.View
	// readers counts the queries that pinned this epoch (acquire) and have
	// not released it; publish recycles a retired epoch only at 0.
	readers atomic.Int32
}

// release unpins an epoch pinned by Service.acquire.
func (st *queryState) release() { st.readers.Add(-1) }

// Service answers client and API queries against a running backend.
// All methods are safe for concurrent use.
//
// Concurrency model: the query endpoints (PingInto, EstimatePrice,
// EstimateTime, PartnerMap) are lock-free. Step holds mu while advancing
// the world and engine, then publishes an immutable queryState through an
// atomic pointer; queries load the pointer and serve entirely from that
// snapshot, so they never contend with Step or with each other. Answers
// are at most one tick (5 simulated seconds) stale — the same quantization
// the surge clock already imposes on the data. Account bookkeeping (auth
// and rate-limit charges) lives in a 16-way sharded table with per-shard
// mutexes, so the per-request auth write doesn't serialize the request
// stream either.
//
// Epoch lifetime: a query that reads the snapshot pins its epoch (acquire)
// and unpins it when done (release), two atomic adds. Each publish hands the
// epoch retired by the previous publish to the world's next build
// (sim.World.Recycle) if nothing pins it, and leaves it to the GC if
// something does. An epoch is therefore reused two builds after it was
// published, never while a pinned query reads it (see acquire).
type Service struct {
	mu     sync.Mutex // serializes Step and the world/engine writers
	world  *sim.World
	engine surge.Pricer
	fares  map[core.VehicleType]core.FareSchedule

	state    atomic.Pointer[queryState]
	retired  *queryState // the epoch the last publish replaced; guarded by mu
	accounts accountTable

	// events holds the optional bus sinks (see SetEventSinks); swapped
	// atomically because the query path that fires them is lock-free.
	events atomic.Pointer[eventSinks]

	// locationFuzz perturbs reported car positions (§3.3: Uber stated
	// car locations "may be slightly perturbed to protect drivers'
	// safety"). 0 disables. The perturbation is deterministic per
	// (car, 30-second window) so co-located clients still agree. Stored
	// as float64 bits so the lock-free query path can read it atomically.
	locationFuzz atomic.Uint64

	// offered products (fleet share > 0), precomputed and immutable.
	offered []core.VehicleType

	// nil-safe metric handles; zero until Instrument is called.
	mRegistrations  *obs.Counter
	mRateLimited    *obs.Counter
	mJitterServed   *obs.Counter
	mEpochsRecycled *obs.Counter
	mEpochsPinned   *obs.Counter
}

var _ core.Service = (*Service)(nil)

// NewService wraps a world/engine pair — any surge.Pricer works; the
// query path reads only the engine's published View. Accounts must be
// registered before they can query (the paper created 43
// credit-card-backed accounts).
func NewService(w *sim.World, e surge.Pricer) *Service {
	s := &Service{
		world:  w,
		engine: e,
		fares:  core.DefaultFares(),
	}
	s.accounts.init()
	shares := sim.NormalizedShares(w.Profile().FleetShare)
	for _, vt := range core.AllVehicleTypes() {
		if shares[int(vt)] > 0 {
			s.offered = append(s.offered, vt)
		}
	}
	s.publish()
	return s
}

// publish freezes the current world/engine state into a fresh queryState
// epoch, first recycling the epoch the previous publish retired unless a
// query still pins it. Callers must hold mu (or be the constructor).
//
// A reader that will ever read the retired epoch's snapshot raised its
// readers count before re-loading state and seeing that epoch still
// current (acquire), so before the previous publish's store replaced it;
// all three are sequentially consistent atomics, so this load sees the
// raise until the reader releases. A reader that raises the count later
// re-loads a newer epoch, backs off, and never touches the recycled one.
func (s *Service) publish() {
	if r := s.retired; r != nil {
		if r.readers.Load() == 0 {
			s.world.Recycle(r.world)
			s.mEpochsRecycled.Inc()
		} else {
			s.mEpochsPinned.Inc()
		}
	}
	s.retired = s.state.Swap(&queryState{world: s.world.Snapshot(), surge: s.engine.View()})
}

// acquire returns the current epoch pinned against recycling; the caller
// must release it once done reading its snapshot. The re-load closes the
// race with publish: a pin raised on an epoch publish already replaced is
// dropped and taken again on the current one.
func (s *Service) acquire() *queryState {
	for {
		st := s.state.Load()
		st.readers.Add(1)
		if s.state.Load() == st {
			return st
		}
		st.release()
	}
}

// Instrument wires the service's counters into reg and cascades to the
// world, so one call instruments the whole backend:
//
//	api_registrations_total    accounts created
//	api_rate_limited_total     estimates requests rejected with 429
//	api_jitter_served_total    pings answered inside a jitter window
//	api_epochs_recycled_total  retired epochs whose buffers the next build reused
//	api_epochs_pinned_total    retired epochs a query still pinned at the
//	                           next publish, left to the GC
func (s *Service) Instrument(reg *obs.Registry) {
	s.mRegistrations = reg.Counter("api_registrations_total")
	s.mRateLimited = reg.Counter("api_rate_limited_total")
	s.mJitterServed = reg.Counter("api_jitter_served_total")
	s.mEpochsRecycled = reg.Counter("api_epochs_recycled_total")
	s.mEpochsPinned = reg.Counter("api_epochs_pinned_total")
	s.world.Instrument(reg)
}

// Register creates an account for clientID; registering twice is a no-op.
// The error is always nil for the in-process service; it exists so Service
// satisfies client.Registrar, whose remote implementation can fail.
func (s *Service) Register(clientID string) error {
	if s.accounts.register(clientID) {
		s.mRegistrations.Inc()
		s.emitRegister(clientID, s.Now())
	}
	return nil
}

// Accounts returns the number of registered accounts.
func (s *Service) Accounts() int { return s.accounts.count() }

// Step advances the backend one tick and publishes a fresh snapshot epoch
// to the query path. Exposed so a real-time shell (cmd/uberd) and the
// measurement campaign can drive the same instance.
func (s *Service) Step() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.world.Step()
	s.engine.Step(s.world.Now())
	s.publish()
}

// RunUntil advances the backend to simulation time end.
func (s *Service) RunUntil(end int64) {
	for s.Now() < end {
		s.Step()
	}
}

// Now returns the backend's simulation time (of the published snapshot).
func (s *Service) Now() int64 {
	return s.state.Load().world.Now
}

// EpochPublished reports whether a query epoch has been published — the
// readiness condition for the lock-free query path (non-nil
// atomic.Pointer). True from construction on; it exists so /readyz states
// the invariant instead of assuming it.
func (s *Service) EpochPublished() bool {
	return s.state.Load() != nil
}

// World exposes the underlying world for ground-truth validation in tests
// and experiments. Production callers use only core.Service.
func (s *Service) World() *sim.World { return s.world }

// Engine exposes the pricing engine for ground-truth validation.
func (s *Service) Engine() surge.Pricer { return s.engine }

// auth validates the account without rate limiting (pingClient is not
// rate limited: the app itself pings every 5 seconds, §3.3).
func (s *Service) auth(clientID string) error {
	if !s.accounts.exists(clientID) {
		return fmt.Errorf("%w: %q", ErrUnknownAccount, clientID)
	}
	return nil
}

// authLimited validates the account and charges one API call against the
// hourly rate limit at simulation time now.
func (s *Service) authLimited(clientID string, now int64) error {
	switch s.accounts.charge(clientID, now) {
	case chargeUnknownAccount:
		return fmt.Errorf("%w: %q", ErrUnknownAccount, clientID)
	case chargeLimited:
		s.mRateLimited.Inc()
		return ErrRateLimited
	}
	return nil
}

// PingInto emulates the Client app's 5-second ping: for each offered
// product it writes the eight nearest available cars (randomized session
// IDs and path vectors), the EWT, and the surge multiplier — including,
// when the April bug is active, per-client jitter — into *dst, reusing the
// capacity of dst.Types, of each product's Cars and of each car's Path. The
// answer is served entirely from the published snapshot epoch; no lock is
// taken. Its Paths, like its Cars, are valid until dst is filled again.
func (s *Service) PingInto(clientID string, loc geo.LatLng, dst *core.PingResponse) error {
	return s.ping(clientID, loc, (*pingBuilder)(dst))
}

// PingClient is PingInto into a fresh response sized to the offered
// products; all of it, Paths included, is the caller's for good.
func (s *Service) PingClient(clientID string, loc geo.LatLng) (*core.PingResponse, error) {
	resp := &core.PingResponse{Types: make([]core.TypeStatus, 0, len(s.offered))}
	if err := s.PingInto(clientID, loc, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// pingSink receives one ping's answer from the walk, in document order:
// begin, then per offered product one product call, car for each of its n
// cars (location fuzz applied) and end. A car's Path aliases nothing but the
// sink's own copy c, which lives for the call; a sink that keeps it copies it.
type pingSink interface {
	begin(now int64)
	product(vt core.VehicleType, n int)
	car(c sim.NearCar)
	end(ewt, surge float64)
}

// pingBuilder is PingInto's sink: the response itself, filled in place. It
// copies each car's path into memory the response owns.
type pingBuilder core.PingResponse

func (r *pingBuilder) begin(now int64) { r.Time, r.Types = now, r.Types[:0] }

// product opens the next product's section over the slot's old one, keeping
// its Cars, and the Path of each, when they hold n. Fresh Cars come with one
// point slab, each car's Path a capped window of it. A product with no cars
// still gets a non-nil Cars, so it encodes as [] and not null.
func (r *pingBuilder) product(vt core.VehicleType, n int) {
	var cars []core.CarView
	if k := len(r.Types); k < cap(r.Types) {
		cars = r.Types[:k+1][k].Cars[:0]
	}
	if cars == nil || cap(cars) < n {
		cars = make([]core.CarView, n)
		pts := make([]geo.LatLng, n*core.MaxPathLen)
		for i := range cars {
			lo := i * core.MaxPathLen
			cars[i].Path = pts[lo : lo : lo+core.MaxPathLen]
		}
		cars = cars[:0]
	}
	r.Types = append(r.Types, core.TypeStatus{Type: vt, TypeName: vt.String(), Cars: cars})
}

// car appends c, its path copied into the Path its slot held.
func (r *pingBuilder) car(c sim.NearCar) {
	ts := &r.Types[len(r.Types)-1]
	k := len(ts.Cars)
	ts.Cars = ts.Cars[:k+1]
	path := ts.Cars[k].Path[:0]
	if cap(path) < core.MaxPathLen {
		path = make([]geo.LatLng, 0, core.MaxPathLen)
	}
	ts.Cars[k] = core.CarView{ID: c.ID, Pos: c.Pos, Path: append(path, c.Path()...)}
}

func (r *pingBuilder) end(ewt, surge float64) {
	ts := &r.Types[len(r.Types)-1]
	ts.EWTSeconds, ts.Surge = ewt, surge
}

// ping is the one pingClient walk, whatever answers it: auth, the pinned
// epoch, region and area, then per offered product the nearest cars, EWT
// and multiplier into out, then the jitter counter and the bus event. out
// sees every car while the epoch is pinned.
func (s *Service) ping(clientID string, loc geo.LatLng, out pingSink) error {
	if err := s.auth(clientID); err != nil {
		return err
	}
	st := s.acquire()
	defer st.release()
	snap, sv := st.world, st.surge
	p := snap.Proj.ToPlane(loc)
	if !snap.Region.Contains(p) {
		return ErrOutOfService
	}
	area := snap.AreaOf(p)
	now := snap.Now
	fuzz := s.fuzzMeters()
	sinks := s.events.Load()
	var stored []wire.TypeObs // the bus event's, built only for a ping sink
	if sinks != nil && sinks.pings != nil {
		stored = make([]wire.TypeObs, 0, len(s.offered))
	}
	out.begin(now)
	var buf [core.MaxVisibleCars]sim.NearCar
	for _, vt := range s.offered {
		cars := snap.AppendNearest(buf[:0], vt, p, core.MaxVisibleCars)
		ewt, surge := snap.EWT(vt, p), 1.0
		if vt.Surgeable() {
			surge = sv.ClientMultiplier(clientID, area, now)
		}
		if fuzz > 0 {
			for i := range cars {
				cars[i].Pos = fuzzPos(snap.Proj, fuzz, cars[i].ID, now, cars[i].Pos)
			}
		}
		out.product(vt, len(cars))
		for _, c := range cars {
			out.car(c)
		}
		out.end(ewt, surge)
		if stored != nil {
			stored = append(stored, typeObs(vt, cars, ewt, surge))
		}
	}
	if sv.InJitter(clientID, now) {
		s.mJitterServed.Inc()
	}
	if stored != nil {
		s.emitPing(sinks, clientID, loc, area, now, stored)
	}
	return nil
}

// SetLocationFuzz enables deterministic perturbation of reported car
// positions by up to meters.
func (s *Service) SetLocationFuzz(meters float64) {
	s.locationFuzz.Store(math.Float64bits(meters))
}

func (s *Service) fuzzMeters() float64 {
	return math.Float64frombits(s.locationFuzz.Load())
}

// fuzzPos displaces a reported position inside a disc of radius fuzz,
// deterministically per (car, 30-second window).
func fuzzPos(proj *geo.Projection, fuzz float64, carID string, now int64, ll geo.LatLng) geo.LatLng {
	h := fnv.New64a()
	h.Write([]byte(carID))
	var buf [8]byte
	w := now / 30
	for i := 0; i < 8; i++ {
		buf[i] = byte(w >> (8 * i))
	}
	h.Write(buf[:])
	v := h.Sum64()
	ang := float64(v&0xFFFF) / 65536 * 2 * math.Pi
	rad := math.Sqrt(float64(v>>16&0xFFFF)/65536) * fuzz
	p := proj.ToPlane(ll)
	return proj.ToLatLng(geo.Point{X: p.X + rad*math.Cos(ang), Y: p.Y + rad*math.Sin(ang)})
}

// EstimatePrice emulates the estimates/price endpoint: fare ranges for a
// nominal 5 km / 15 minute trip under the current API-stream surge
// multiplier (no jitter), rate limited per account. Lock-free.
func (s *Service) EstimatePrice(clientID string, loc geo.LatLng) ([]core.PriceEstimate, error) {
	st := s.acquire()
	defer st.release()
	snap, sv := st.world, st.surge
	now := snap.Now
	if err := s.authLimited(clientID, now); err != nil {
		return nil, err
	}
	p := snap.Proj.ToPlane(loc)
	if !snap.Region.Contains(p) {
		return nil, ErrOutOfService
	}
	area := snap.AreaOf(p)
	out := make([]core.PriceEstimate, 0, len(s.offered))
	for _, vt := range s.offered {
		m := 1.0
		if vt.Surgeable() {
			m = sv.APIMultiplier(area, now)
		}
		out = append(out, s.fares[vt].Estimate(vt, m))
	}
	return out, nil
}

// EstimateTime emulates the estimates/time endpoint: EWT per product,
// rate limited per account. Lock-free.
func (s *Service) EstimateTime(clientID string, loc geo.LatLng) ([]core.TimeEstimate, error) {
	st := s.acquire()
	defer st.release()
	snap := st.world
	if err := s.authLimited(clientID, snap.Now); err != nil {
		return nil, err
	}
	p := snap.Proj.ToPlane(loc)
	if !snap.Region.Contains(p) {
		return nil, ErrOutOfService
	}
	out := make([]core.TimeEstimate, 0, len(s.offered))
	for _, vt := range s.offered {
		out = append(out, core.TimeEstimate{
			TypeName:   vt.String(),
			EWTSeconds: snap.EWT(vt, p),
		})
	}
	return out, nil
}
