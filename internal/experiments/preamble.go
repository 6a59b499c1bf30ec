package experiments

import "io"

// Preamble is the hand-written header of EXPERIMENTS.md: the reading
// guide and the honest list of known deviations from the paper. It is
// embedded here so `cmd/experiments -preamble` regenerates the whole file
// from one command.
const Preamble = `# EXPERIMENTS — paper vs. measured, for every table and figure

This file records the reproduction outcomes for *Peeking Beneath the Hood
of Uber* (IMC 2015). Each section names the paper's figure or table,
states what the paper reported, and shows what this repository measures
when the paper's methodology (43 emulated clients, API probes, the
surge-area prober, the strategy sweeps) runs against the simulated
backend.

Regenerate everything below with:

` + "```" + `
go run ./cmd/experiments -preamble -hours 24 -seed 42 -out EXPERIMENTS.md
` + "```" + `

(` + "`-hours 48`" + ` and beyond sharpen the distributions at the cost of runtime;
the shapes are stable from one day up. The numbers below were produced by
exactly that command.)

A note on revisions: the simulation tick is now phase-parallel
(DESIGN.md, "Parallel simulation") and draws from per-shard
counter-based RNG streams instead of one serial stream. Every sampled
number below therefore differs from pre-parallel revisions of this
file — a pure relabeling of the random draws, not a behavior change:
the distributions, orderings, and correlation shapes are the same, and
the worker count never affects results (the tick is bit-for-bit
identical for any ` + "`-sim-workers`" + ` value; see
` + "`TestStepWorkerInvariance`" + `).

Reading guide — what "reproduced" means here: the backend is a simulator
calibrated to the paper's aggregate observations, so absolute counts are
not comparable to 2015 production Uber. The reproduction claims are about
*shape*: orderings between cities, which correlations exist and where
they peak, which stream shows jitter, whether surge is forecastable,
where the avoidance strategy pays. Each section's "Paper:" line states
the shape being tested. Known deviations worth flagging up front:

* **Fig 2**: the diurnal ordering (larger radius at night) reproduces;
  the paper's SF≫Manhattan radius gap does not fully, because the
  simulated SF fleet density is closer to Manhattan's than reality's.
* **Fig 13**: the April client stream shows ~16-20% of surges under one
  minute versus the paper's 40%; pushing the jitter rate high enough to
  match 40% would break Fig 17's "90% of jitter events are seen by one
  client". The paper's two numbers are in tension under any
  uniform-random per-client bug model; we chose the rate that keeps both
  qualitatively right (client stream ≫ API stream in sub-minute surges,
  most jitter events seen by a single client).
* **Figs 20/21**: correlation signs and the Δt = 0 peak reproduce;
  magnitudes are smaller than the paper's because part of the simulated
  surge noise is latent demand the measurement cannot see (which is also
  what keeps Table 1's R² realistically low).
* **Figs 23/24**: the Manhattan-vs-SF contrast reproduces (typical
  Manhattan probes find a cheaper adjacent pickup ~8-19% of the time,
  typical SF probes ~2%), but it is partly built in: SF's surge-area
  boundaries are placed grazing the south-west corner, mirroring the
  paper's observation that only UCSF-corner users benefited. Savings run
  ~0.2-0.4 multiplier steps versus the paper's ≥0.5 — our inter-area
  differentials are one or two quantization steps, the paper's were
  larger.
* **Fig 22**: the *measured* New share does not rise in surging areas,
  although the simulator's ground truth shows new logons flock there
  strongly (+5-14 pp). The 8-nearest-car visibility cap saturates in
  surging areas — suppressed demand piles up idle cars — and hides fresh
  logons from the probes. The Fig 22 section therefore shows the
  ground-truth table next to the measured one; this is a methodology
  limitation the paper's (three-times-denser) taxi validation could not
  have exposed.

---

`

// WritePreamble emits the EXPERIMENTS.md header.
func WritePreamble(w io.Writer) {
	io.WriteString(w, Preamble)
}
