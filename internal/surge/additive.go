package surge

import (
	"math"

	"repro/internal/core"
)

// The additive regime implements the post-2015 driver surge scheme
// described by Garg & Nazerzadeh (*Driver Surge Pricing*): instead of
// scaling the whole fare by a multiplier, the engine adds a flat,
// quantized USD pip to every surgeable trip in the area. The rider's
// quote becomes base + pip, and the driver keeps the entire pip on top of
// the usual 80% of the base fare (the sim's settleFare applies that split
// in sim.MarketAdditive, reading the pip back off the API-stream
// multiplier, so riders are charged what the quote showed).
//
// It prices the same market signal as mult2015 — the identical
// rawPressures features and RNG stream — but publishes it through the
// standard View as an *effective multiplier* 1 + pip/base (base = the
// nominal UberX trip fare), so the lock-free query path, the measurement
// pipeline, and the elasticity/flocking feedback all work unchanged. The
// distinguishing external signature the 2015 audit can look for:
// effective multipliers land on a $0.25/base grid rather than the 0.1
// multiplier grid, and the client stream never jitters (the additive
// rollout postdates the April bug).

// PipStep is the USD quantum of the additive surcharge: pips move on a
// 25-cent grid (Garg & Nazerzadeh report Uber's successor scheme paying
// drivers flat per-trip "surge pips" in small fixed increments).
const PipStep = 0.25

// nominalBaseFare is the UberX fare the estimates/price endpoint quotes
// at multiplier 1 — the denominator that converts a USD pip into an
// effective multiplier (and back, exactly, for the nominal UberX quote).
var nominalBaseFare = core.DefaultFares()[core.UberX].Quote(1)

// quantizePip is the additive regime's quantiser: the raw multiplicative
// pressure above 1 converts to USD on the nominal fare, snaps to the
// PipStep grid, is capped at MaxMultiplier's worth of surcharge, and
// re-encodes as an effective multiplier for the View.
func quantizePip(cfg *Config, raw float64) float64 {
	pip := (raw - 1) * nominalBaseFare
	pip = math.Round(pip/PipStep) * PipStep
	// Normalize binary noise to whole cents.
	pip = math.Round(pip*100) / 100
	if pip < 0 {
		pip = 0
	}
	if maxPip := (cfg.Params.MaxMultiplier - 1) * nominalBaseFare; pip > maxPip {
		pip = maxPip
	}
	return 1 + pip/nominalBaseFare
}
