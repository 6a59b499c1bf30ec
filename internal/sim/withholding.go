package sim

import (
	"repro/internal/bus"
	"repro/internal/core"
)

// WithholdingConfig parameterizes the strategic driver response of
// Schröder et al. (*Anomalous supply shortages from dynamic pricing in
// on-demand mobility*): each driver carries a personal surge threshold,
// and when the posted multiplier in their area is below it they may log
// off for a spell rather than accept low-priced work. The perverse
// macro effect the paper predicts — supply draining exactly while the
// price signal says it should grow — is what the audit harness probes
// for.
//
// The response runs in the serial spawn phase on a fixed cadence, and
// every draw is a pure hash of (seed, driver identity, decision time) —
// no RNG stream is consumed — so worlds stay bit-identical at any
// worker count and the engines that don't arm withholding are entirely
// unaffected.
type WithholdingConfig struct {
	// MinThreshold..MaxThreshold is the range of personal surge
	// thresholds; each driver's own threshold is a deterministic hash of
	// their identity. A driver considers withholding only while the
	// posted multiplier in their area is below their threshold.
	MinThreshold float64
	MaxThreshold float64
	// Prob is the per-decision chance a tempted driver actually logs off.
	Prob float64
	// Duration is how long a withholding driver stays offline, seconds.
	Duration int64
	// Period is the decision cadence in seconds; drivers re-evaluate when
	// now is a multiple of it.
	Period int64
}

// DefaultWithholding returns the Schröder et al.-flavored defaults: a
// fifth of tempted drivers sit out 15 minutes whenever the posted
// multiplier sits below their personal threshold (spread over 1.0–1.4),
// re-evaluating on the surge engine's own 5-minute cadence.
func DefaultWithholding() WithholdingConfig {
	return WithholdingConfig{
		MinThreshold: 1.0,
		MaxThreshold: 1.4,
		Prob:         0.2,
		Duration:     900,
		Period:       300,
	}
}

// Armed reports whether the config actually triggers withholding.
func (c WithholdingConfig) Armed() bool {
	return c.Prob > 0 && c.Period > 0 && c.Duration > 0 && c.MaxThreshold > c.MinThreshold
}

// SetWithholding arms (or, with a zero config, disarms) the strategic
// withholding response; a withholding-style pricing engine installs it.
func (w *World) SetWithholding(cfg WithholdingConfig) {
	w.withhold = cfg
}

// hashUnit maps (seed, id, t) to a uniform float64 in [0, 1) through the
// splitmix64 finalizer — the sim's standard stateless stream.
func hashUnit(seed int64, id int64, t int64) float64 {
	h := mix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(id))
	h = mix64(h ^ uint64(t))
	return float64(h>>11) / float64(1<<53)
}

// withholdThreshold is the driver's personal surge threshold, a stable
// hash of their lifetime identity (survives re-logins, which recycle
// slots and session IDs but keep f.id).
func (w *World) withholdThreshold(id int64) float64 {
	c := w.withhold
	return c.MinThreshold + (c.MaxThreshold-c.MinThreshold)*hashUnit(w.cfg.Seed, id, 0)
}

// applyWithholding runs the strategic-idling decision pass: on each
// decision boundary, every idle surgeable driver whose area multiplier
// is below their personal threshold flips a deterministic coin and, on
// heads, logs off for cfg.Duration seconds through the same suspension
// machinery as ForceOffline. Serial phase only; slot order is
// deterministic, and no world RNG is consumed.
func (w *World) applyWithholding() {
	c := w.withhold
	if !c.Armed() || w.now%c.Period != 0 {
		return
	}
	f := &w.fleet
	for s := int32(0); int(s) < f.high; s++ {
		if !f.live[s] || DriverState(f.state[s]) != StateIdle {
			continue
		}
		vt := core.VehicleType(f.typ[s])
		if !vt.Surgeable() {
			continue
		}
		area := w.areaIndex.Find(f.pos[s])
		if area < 0 {
			continue
		}
		mult := w.surgeCache[area]
		if mult >= w.withholdThreshold(f.id[s]) {
			continue
		}
		if hashUnit(w.cfg.Seed, f.id[s], w.now) >= c.Prob {
			continue
		}
		w.suspended = append(w.suspended, suspendedDriver{
			vt: vt, pos: f.pos[s], returnAt: w.now + c.Duration,
		})
		w.emitSlot(bus.KindDriverSuspend, s, float64(c.Duration), vt.String())
		w.removeSlot(s)
		w.TotalSuspended++
		w.TotalWithheld++
	}
}
