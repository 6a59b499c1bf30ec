// Engine comparison: the ROADMAP's open question — can the paper's 2015
// audit methodology (43-client campaign, API probes, Fig 13 duration
// CDFs, Fig 20/21 lagged correlations) tell pricing regimes apart from
// the outside? RunEngineComparison runs the identical measurement
// campaign against each surge.Pricer and reduces every regime to the
// fingerprint an external auditor could compute, then the writer renders
// the side-by-side verdict.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/surge"
)

// cdfMedian tolerates the nil/empty CDFs a surge-free window produces.
func cdfMedian(c *stats.CDF) float64 {
	if c == nil || c.Len() == 0 {
		return math.NaN()
	}
	return c.Median()
}

// EngineAudit is one pricing regime's external fingerprint under the
// 2015 methodology, plus the operator-side ground truth the auditor
// cannot see (Withheld) for calibration.
type EngineAudit struct {
	Engine  string
	Summary SupplyDemandSummary
	Fig13   Fig13Durations
	Fig20   CorrResult // surge vs (supply − demand), lagged
	Fig21   CorrResult // surge vs EWT, lagged

	// SurgedSamples counts client surge samples above 1; OffGridFrac is
	// the fraction of those that sit OFF the 2015 engine's 0.1 multiplier
	// grid — the additive regime's $0.25 pips land between the steps.
	SurgedSamples int
	OffGridFrac   float64

	// JitterFrac is the fraction of client-stream surge episodes shorter
	// than 120 s (Fig 13's left tail). The April bug fragments episodes on
	// the 2015 engine; a regime without jitter has almost none.
	JitterFrac float64

	// Withheld is the simulator's ground-truth count of strategic
	// withholding logoffs — operator-side truth, not an external signal.
	Withheld int64
}

// AuditEngine runs the measurement campaign against the scenario's engine
// and reduces it to the audit fingerprint. The strategy sweeps and lattice
// prober are skipped: neither feeds the regime fingerprint.
func AuditEngine(opts Options) EngineAudit {
	r := runCity(opts, false)

	a := EngineAudit{Engine: r.Svc.Engine().Name()}
	a.Summary = Summarize(r)
	a.Fig13 = Fig13SurgeDurations(r)
	a.Fig20 = Fig20SupplyDemandCorrelation(r, 60)
	a.Fig21 = Fig21EWTCorrelation(r, 60)
	a.Withheld = r.Svc.World().TotalWithheld

	offGrid := 0
	for _, v := range r.Dataset.SurgeSamples {
		m := float64(v)
		if m <= 1 {
			continue
		}
		a.SurgedSamples++
		if d := math.Abs(m*10 - math.Round(m*10)); d > 0.01 {
			offGrid++
		}
	}
	if a.SurgedSamples > 0 {
		a.OffGridFrac = float64(offGrid) / float64(a.SurgedSamples)
	}
	if n := a.Fig13.Client.Len(); n > 0 {
		a.JitterFrac = a.Fig13.Client.At(120)
	}
	return a
}

// RunEngineComparison audits every selectable engine under the same
// options, in EngineNames order (the 2015 baseline first); the scenario's
// own engine is ignored.
func RunEngineComparison(opts Options) []EngineAudit {
	var out []EngineAudit
	for _, name := range surge.EngineNames() {
		opts.Scenario.Engine = name
		out = append(out, AuditEngine(opts))
	}
	return out
}

// WriteEngineAudit prints one regime's fingerprint in grep-friendly
// lines (the CI engine-smoke step asserts on them) followed by the
// Fig 13 / Fig 20 / Fig 21 summaries.
func WriteEngineAudit(w io.Writer, a EngineAudit) {
	fmt.Fprintf(w, "engine-report: engine=%s surged-samples=%d surged-frac=%.3f mean-surge=%.3f offgrid-frac=%.3f withheld=%d\n",
		a.Engine, a.SurgedSamples, a.Summary.SurgedFrac, a.Summary.MeanSurge, a.OffGridFrac, a.Withheld)
	fmt.Fprintf(w, "engine-fig13: engine=%s api-median=%.0fs client-median=%.0fs client-under-120s=%.2f\n",
		a.Engine, cdfMedian(a.Fig13.API), cdfMedian(a.Fig13.Client), a.JitterFrac)
	fmt.Fprintf(w, "engine-fig20: engine=%s r0=%+.3f peak-r=%+.3f peak-lag=%dmin\n",
		a.Engine, a.Fig20.RAtZero, a.Fig20.PeakR, a.Fig20.PeakLag)
	fmt.Fprintf(w, "engine-fig21: engine=%s r0=%+.3f peak-r=%+.3f peak-lag=%dmin\n",
		a.Engine, a.Fig21.RAtZero, a.Fig21.PeakR, a.Fig21.PeakLag)
}

// engineSignal is one externally measurable discriminator between a
// regime and the 2015 baseline.
type engineSignal struct {
	name      string
	baseline  float64
	candidate float64
	// threshold is the absolute delta above which the signal counts as
	// distinguishing — set per signal to sit well above run-to-run noise.
	threshold float64
}

func (s engineSignal) delta() float64      { return s.candidate - s.baseline }
func (s engineSignal) distinguishes() bool { return math.Abs(s.delta()) > s.threshold }
func (s engineSignal) describe() string {
	return fmt.Sprintf("%s %.3f vs baseline %.3f (Δ%+.3f, threshold %.3f)",
		s.name, s.candidate, s.baseline, s.delta(), s.threshold)
}

// compareSignals lists the audit's discriminators for a candidate regime
// against the mult2015 baseline.
func compareSignals(base, cand EngineAudit) []engineSignal {
	return []engineSignal{
		// Quantization grid: 0.1 multiplier steps vs $0.25 pips.
		{"offgrid-frac", base.OffGridFrac, cand.OffGridFrac, 0.2},
		// Jitter fragmentation of client-stream episodes (Fig 13 left tail).
		{"client-under-120s", base.JitterFrac, cand.JitterFrac, 0.15},
		// Market shape: how often and how hard the regime surges.
		{"surged-frac", base.Summary.SurgedFrac, cand.Summary.SurgedFrac, 0.1},
		{"mean-surge", base.Summary.MeanSurge, cand.Summary.MeanSurge, 0.05},
		// Supply response: withholding inverts supply exactly when surge
		// should attract it (Fig 20's zero-lag correlation).
		{"fig20-r0", base.Fig20.RAtZero, cand.Fig20.RAtZero, 0.15},
		{"fig21-r0", base.Fig21.RAtZero, cand.Fig21.RAtZero, 0.15},
	}
}

// WriteEngineComparison renders the side-by-side fingerprints and the
// distinguishability verdict for every non-baseline regime.
func WriteEngineComparison(w io.Writer, opts Options, audits []EngineAudit) {
	span := fmt.Sprintf("%d day(s)", opts.Days)
	if opts.Hours > 0 {
		span = fmt.Sprintf("%d hour(s)", opts.Hours)
	}
	fmt.Fprintf(w, "engine-comparison: seed=%d span=%s engines=%d\n", opts.Scenario.Seed, span, len(audits))
	for _, a := range audits {
		WriteEngineAudit(w, a)
	}

	row := func(name string, f func(a EngineAudit) string) {
		fmt.Fprintf(w, "| %s |", name)
		for _, a := range audits {
			fmt.Fprintf(w, " %s |", f(a))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	row("metric", func(a EngineAudit) string { return a.Engine })
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(audits)))
	row("surged samples", func(a EngineAudit) string { return fmt.Sprintf("%d", a.SurgedSamples) })
	row("surged fraction", func(a EngineAudit) string { return fmt.Sprintf("%.3f", a.Summary.SurgedFrac) })
	row("mean multiplier", func(a EngineAudit) string { return fmt.Sprintf("%.3f", a.Summary.MeanSurge) })
	row("mean EWT (min)", func(a EngineAudit) string { return fmt.Sprintf("%.2f", a.Summary.MeanEWTMin) })
	row("off-grid multiplier fraction", func(a EngineAudit) string { return fmt.Sprintf("%.3f", a.OffGridFrac) })
	row("client episodes < 120 s", func(a EngineAudit) string { return fmt.Sprintf("%.2f", a.JitterFrac) })
	row("Fig 20 r at lag 0", func(a EngineAudit) string { return fmt.Sprintf("%+.3f", a.Fig20.RAtZero) })
	row("Fig 21 r at lag 0", func(a EngineAudit) string { return fmt.Sprintf("%+.3f", a.Fig21.RAtZero) })
	row("withheld logoffs (truth)", func(a EngineAudit) string { return fmt.Sprintf("%d", a.Withheld) })

	base := audits[0]
	for _, cand := range audits[1:] {
		signals := compareSignals(base, cand)
		var hits []engineSignal
		for _, s := range signals {
			if s.distinguishes() {
				hits = append(hits, s)
			}
		}
		fmt.Fprintf(w, "\nengine-verdict: %s-vs-%s distinguishable=%v signals=%d\n",
			cand.Engine, base.Engine, len(hits) > 0, len(hits))
		for _, s := range hits {
			fmt.Fprintf(w, "engine-signal: %s-vs-%s %s\n", cand.Engine, base.Engine, s.describe())
		}
		if len(hits) == 0 {
			fmt.Fprintf(w, "engine-signal: %s-vs-%s none — every discriminator within noise thresholds\n",
				cand.Engine, base.Engine)
		}
	}
}
