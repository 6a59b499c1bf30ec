// Package surge implements the surge pricing engine whose externally
// visible behaviour the paper reverse-engineers in §5:
//
//   - the city is hand-partitioned into surge areas with independent
//     multipliers (Figs 18, 19);
//   - multipliers update on a 5-minute clock, with the API observing the
//     change inside a ~35-second band of each interval and the Client app
//     inside a wider ~2-minute band (Fig 15);
//   - each area's multiplier is computed from the trailing window's
//     supply/demand slack and EWT, which is why the paper finds the
//     strongest cross-correlations at Δt = 0 (Figs 20, 21);
//   - the April 2015 datastream additionally contains "jitter": individual
//     clients receive the previous interval's multiplier for 20-30 seconds
//     at random moments — later confirmed by Uber to be a consistency bug
//     serving stale multipliers to random customers (Figs 14, 16, 17).
//
// The engine's inputs deliberately include latent demand (quantity
// demanded), which outside measurement cannot see; that is what makes the
// paper's forecasting models top out around R² ≈ 0.4 (Table 1).
package surge

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bus"
	"repro/internal/obs"
	"repro/internal/sim"
)

// UpdatePeriod is the surge clock period in seconds.
const UpdatePeriod = 300

// OccupancySeconds is the car-time one fulfilled request consumes
// (dispatch approach plus trip); used to convert latent demand counts into
// capacity utilization.
const OccupancySeconds = 600

// Config configures an Engine.
type Config struct {
	Params sim.SurgeParams
	Seed   int64
	// Jitter enables the April 2015 consistency bug in the client
	// datastream. The API stream is never jittered, and a regime that
	// postdates the bug (additive) ignores the request.
	Jitter bool
	// Smoothing implements the paper's §8 proposal: update surge as an
	// exponentially weighted moving average instead of jumping to each
	// interval's raw value, making prices "more predictable and less
	// dramatic". 0 disables smoothing; otherwise it is the weight of the
	// previous multiplier (e.g. 0.6 keeps 60% of the old value).
	Smoothing float64
}

// Engine computes and serves surge multipliers for one world, under one
// pricing regime (see the regimes table in pricer.go).
type Engine struct {
	world  *sim.World
	regime *regime
	cfg    Config
	rng    *rand.Rand

	cur  []float64 // multiplier computed for the current interval
	prev []float64 // previous interval's multiplier

	intervalStart int64
	apiSwitchAt   int64 // when the API stream starts serving cur

	// view is the published immutable read state; every externally
	// visible multiplier/jitter answer — the world's surge provider
	// included — is served through it.
	view *View

	// nil-safe metric handles; zero until Instrument is called.
	mUpdates    *obs.Counter
	mChanges    *obs.Counter
	hUpdateDur  *obs.Histogram
	gMaxMult    *obs.Gauge
	gSurgeAreas *obs.Gauge

	// events receives one SurgeChange per area whose multiplier moved at
	// an update (see SetEventSink); areaKeys holds the precomputed
	// per-area event keys so the update loop does not format strings.
	events   func(bus.Event)
	areaKeys []string
}

// SetEventSink installs fn to receive a bus.KindSurgeChange event for
// every area whose multiplier changes at an update boundary. The
// callback runs synchronously inside update. Pass nil to detach.
func (e *Engine) SetEventSink(fn func(bus.Event)) { e.events = fn }

// Instrument wires the engine's metrics into reg:
//
//	surge_updates_total            completed 5-minute updates
//	surge_multiplier_changes_total areas whose multiplier moved at an update
//	surge_update_duration_seconds  wall-clock cost of one update pass
//	surge_max_multiplier           highest current multiplier across areas
//	surge_areas_surging            areas currently above 1.0
func (e *Engine) Instrument(reg *obs.Registry) {
	e.mUpdates = reg.Counter("surge_updates_total")
	e.mChanges = reg.Counter("surge_multiplier_changes_total")
	e.hUpdateDur = reg.Histogram("surge_update_duration_seconds", nil)
	e.gMaxMult = reg.Gauge("surge_max_multiplier")
	e.gSurgeAreas = reg.Gauge("surge_areas_surging")
}

// New builds the default mult2015 engine over the world and installs it
// as the world's surge provider (the feedback loop through which surge
// influences driver arrivals and passenger elasticity).
func New(w *sim.World, cfg Config) *Engine { return newEngine(w, &regimes[0], cfg) }

// Name identifies the engine's pricing regime.
func (e *Engine) Name() string { return e.regime.name }

// newEngine builds an engine under regime r and installs it into the
// world: its View's API stream as the surge provider, its market as the
// world's.
func newEngine(w *sim.World, r *regime, cfg Config) *Engine {
	cfg.Jitter = cfg.Jitter && r.jitter
	n := len(w.Areas())
	e := &Engine{
		world:  w,
		regime: r,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x5e1fca5e)),
		cur:    ones(n),
		prev:   ones(n),
	}
	e.areaKeys = make([]string, n)
	for a := range e.areaKeys {
		e.areaKeys[a] = fmt.Sprintf("area-%02d", a)
	}
	e.scheduleSwitches(w.Now() - w.Now()%UpdatePeriod)
	e.rebuildView()
	w.SetSurgeProvider(func(area int) float64 {
		return e.view.APIMultiplier(area, w.Now())
	})
	w.SetMarket(r.market)
	return e
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// Step advances the engine to time now, recomputing multipliers at each
// 5-minute boundary. Call once per world tick, after world.Step.
func (e *Engine) Step(now int64) {
	boundary := now - now%UpdatePeriod
	if boundary > e.intervalStart {
		e.update(boundary)
	}
}

// rawPressures computes every area's raw — pre-smoothing, pre-quantized —
// surge signal for one interval: the trailing window's utilization and EWT
// features folded through the profile params, with the interval's
// stochastic demand shocks drawn from rng, capped at MaxMultiplier. Every
// regime prices this same market signal. The draw order — one city-wide
// shock, then one local shock per area — is part of the determinism
// contract.
func rawPressures(w *sim.World, p sim.SurgeParams, rng *rand.Rand, out []float64) {
	// Demand fluctuations have a city-wide component (weather, events,
	// transit failures) and an area-local one; NoiseCorr sets the mix.
	cityShock := rng.NormFloat64()
	corr := p.NoiseCorr
	local := math.Sqrt(math.Max(0, 1-corr*corr))

	// First pass: each area's raw utilization and EWT feature. The city
	// pressure is capacity-weighted (total demand over total capacity) so
	// small areas' noisy ratios don't distort it.
	utils := make([]float64, len(out))
	ewts := make([]float64, len(out))
	var cityLoad, cityCap float64
	for a := range out {
		st := w.ConsumeWindow(a)
		window := float64(st.Ticks) * float64(w.TickSeconds())
		if window <= 0 {
			window = UpdatePeriod
		}
		capacity := st.AvgIdle() + st.AvgBusy()
		load := float64(st.LatentDemand) * OccupancySeconds / window
		utils[a] = load / math.Max(capacity, 1)
		ewts[a] = st.AvgEWT()
		cityLoad += load
		cityCap += capacity
	}
	cityUtil := cityLoad / math.Max(cityCap, 1)

	for a := range out {
		// Area coupling pools each area's pressure with the city mean
		// (§6: SF's areas move together far more than Manhattan's).
		util := (1-p.AreaCoupling)*utils[a] + p.AreaCoupling*cityUtil
		// Stochastic demand fluctuation: the short window sees a noisy
		// sample of the true intensity. This is what makes most surges
		// last a single interval (Fig 13).
		shock := corr*cityShock + local*rng.NormFloat64()
		util *= 1 + p.Noise*shock

		raw := 1.0
		if denom := math.Max(1-p.UtilThreshold, 0.05); util > p.UtilThreshold {
			raw += p.Gain * (util - p.UtilThreshold) / denom
		}
		if ewt := ewts[a]; ewt > p.EWTRef {
			raw += p.EWTGain * (ewt - p.EWTRef)
		}
		if raw > p.MaxMultiplier {
			raw = p.MaxMultiplier
		}
		out[a] = raw
	}
}

// update recomputes every area's multiplier for the interval starting at
// boundary.
func (e *Engine) update(boundary int64) {
	updateStart := time.Now()
	copy(e.prev, e.cur)
	raws := make([]float64, len(e.cur))
	rawPressures(e.world, e.cfg.Params, e.rng, raws)
	for a := range e.cur {
		raw := raws[a]
		if s := e.cfg.Smoothing; s > 0 {
			raw = s*e.prev[a] + (1-s)*raw
		}
		e.cur[a] = e.regime.quantize(&e.cfg, raw)
	}
	e.scheduleSwitches(boundary)
	e.rebuildView()

	e.mUpdates.Inc()
	e.hUpdateDur.ObserveDuration(time.Since(updateStart))
	var changed int64
	maxMult := 1.0
	surging := 0.0
	for a := range e.cur {
		if e.cur[a] != e.prev[a] {
			changed++
			if e.events != nil {
				e.events(bus.Event{
					Time: boundary, Kind: bus.KindSurgeChange,
					Key: e.areaKeys[a], Area: int32(a), Num: e.cur[a],
				})
			}
		}
		if e.cur[a] > maxMult {
			maxMult = e.cur[a]
		}
		if e.cur[a] > 1 {
			surging++
		}
	}
	e.mChanges.Add(changed)
	e.gMaxMult.Set(maxMult)
	e.gSurgeAreas.Set(surging)
}

// scheduleSwitches draws this interval's API propagation delay: updates
// land within a ~35 s band of each interval (Fig 15). Client-stream
// delays are per-client; see clientSwitchAt.
func (e *Engine) scheduleSwitches(boundary int64) {
	e.intervalStart = boundary
	e.apiSwitchAt = boundary + 5 + int64(e.rng.Float64()*35)
}

// Quantize snaps a raw multiplier to Uber's 0.1 steps with a floor of 1.
func Quantize(m float64) float64 {
	q := math.Round(m/0.1) * 0.1
	// Normalize binary noise (0.30000000000000004 -> 0.3).
	q = math.Round(q*1e9) / 1e9
	if q < 1 {
		return 1
	}
	return q
}

// quantizeGrid is the multiplicative regimes' quantiser: Uber's 0.1 grid.
func quantizeGrid(_ *Config, raw float64) float64 { return Quantize(raw) }
