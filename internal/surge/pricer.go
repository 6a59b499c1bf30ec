package surge

import (
	"fmt"
	"strings"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Pricer is the pricing-engine contract the backend layers (api.Service,
// cmd/uberd, the experiment harness) program against. A Pricer owns the
// 5-minute update clock and per-area price state for one world, publishes
// an immutable View — the one place every price question is answered —
// and emits SurgeChange events when prices move.
//
// Every regime keeps three invariants the audit methodology and the
// parallel simulator rely on:
//
//   - Determinism: every externally visible answer is a pure function of
//     (Config.Seed, world history, clientID, time). The sim.Market a
//     regime selects must act in serial phases only, so
//     TestStepWorkerInvariance holds at every worker count.
//   - Floor: multipliers never fall below 1; a regime that prices in
//     additive USD pips encodes them as effective multipliers ≥ 1.
//   - API stream purity: jitter (the April 2015 bug) may only ever affect
//     the client stream; View.APIMultiplier answers are never jittered.
//
// Engine is the one implementation; its regimes are the table below.
type Pricer interface {
	// Name identifies the engine's regime; one of EngineNames.
	Name() string
	// Step advances the engine to time now, recomputing prices at each
	// 5-minute boundary. Call once per world tick, after world.Step.
	Step(now int64)
	// View returns the engine's current immutable read state.
	View() *View
	// SetEventSink installs fn to receive a bus.KindSurgeChange event per
	// area whose price moves at an update boundary; nil detaches.
	SetEventSink(fn func(bus.Event))
}

// regime is everything that distinguishes one pricing engine from
// another; the clock, RNG stream, pressure signal, smoothing, switch
// schedule, View and events are the Engine's, the same under all.
type regime struct {
	name string
	// quantize turns an area's smoothed raw pressure into the effective
	// multiplier (≥ 1) the engine publishes for the interval.
	quantize func(cfg *Config, raw float64) float64
	// jitter reports whether Config.Jitter is honoured; a regime that
	// postdates the April 2015 bug never jitters, whatever the config asks.
	jitter bool
	// market is the sim.Market the engine sets on its world.
	market sim.Market
}

// regimes is the one list of selectable pricing engines, default first.
var regimes = []regime{
	// The paper's §5 multiplicative algorithm: multipliers on the 0.1
	// grid, April jitter when asked for.
	{name: "mult2015", quantize: quantizeGrid, jitter: true},
	// Garg & Nazerzadeh's driver surge pips; see additive.go.
	{name: "additive", quantize: quantizePip, market: sim.MarketAdditive},
	// mult2015 pricing coupled to Schröder et al.'s strategic driver
	// response: only the supply side changes, in the world's serial spawn
	// phase, and shows up as DriverSuspend events and in
	// TotalSuspended/TotalWithheld.
	{name: "withholding", quantize: quantizeGrid, jitter: true, market: sim.MarketWithholding},
}

// EngineNames lists the selectable pricing engines, default first.
func EngineNames() []string {
	names := make([]string, len(regimes))
	for i := range regimes {
		names[i] = regimes[i].name
	}
	return names
}

// lookupRegime resolves an engine name; empty selects the default.
func lookupRegime(name string) (*regime, error) {
	if name == "" {
		return &regimes[0], nil
	}
	for i := range regimes {
		if regimes[i].name == name {
			return &regimes[i], nil
		}
	}
	return nil, fmt.Errorf("surge: unknown pricing engine %q (want one of %s)", name, strings.Join(EngineNames(), ", "))
}

// CheckEngine reports whether name selects a pricing engine, with the
// error NewPricer would return, so a command can reject a bad -engine
// before it builds a world.
func CheckEngine(name string) error {
	_, err := lookupRegime(name)
	return err
}

// NewPricer builds the named pricing engine over the world and installs
// it as the world's price provider. An empty name selects the default; an
// unknown name is an error (callers surface it at flag-parse time).
func NewPricer(w *sim.World, name string, cfg Config) (Pricer, error) {
	r, err := lookupRegime(name)
	if err != nil {
		return nil, err
	}
	return newEngine(w, r, cfg), nil
}
