package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestAuditEngineSmoke runs the shortest real audit end to end: the
// fingerprint must come from the named engine and render every grep line
// the CI engine-smoke step asserts on.
func TestAuditEngineSmoke(t *testing.T) {
	a := AuditEngine(Options{Scenario: api.Scenario{City: "manhattan", Seed: 7, Engine: "additive", Jitter: true, Workers: 4}, Hours: 1})
	if a.Engine != "additive" {
		t.Fatalf("audited engine %q, want additive", a.Engine)
	}
	if a.Withheld != 0 {
		t.Fatalf("additive regime recorded %d withheld logoffs", a.Withheld)
	}
	var buf bytes.Buffer
	WriteEngineAudit(&buf, a)
	out := buf.String()
	for _, want := range []string{"engine-report: engine=additive", "engine-fig13:", "engine-fig20:", "engine-fig21:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit report missing %q:\n%s", want, out)
		}
	}
}

// TestEngineComparisonVerdict pins the distinguishability logic on
// synthetic fingerprints: a regime that differs only below every signal
// threshold is indistinguishable; crossing one threshold flips the
// verdict and names the signal.
func TestEngineComparisonVerdict(t *testing.T) {
	base := EngineAudit{Engine: "mult2015"}
	base.Summary.SurgedFrac = 0.12
	base.Summary.MeanSurge = 1.05
	base.JitterFrac = 0.22
	base.Fig20.RAtZero = -0.13
	base.Fig21.RAtZero = 0.43

	near := base
	near.Engine = "additive"
	near.Summary.MeanSurge += 0.01 // inside every threshold
	for _, s := range compareSignals(base, near) {
		if s.distinguishes() {
			t.Fatalf("signal %s fired on sub-threshold delta %+.3f", s.name, s.delta())
		}
	}

	far := base
	far.Engine = "withholding"
	far.Fig21.RAtZero = 0.20 // Δ-0.23 clears the 0.15 threshold
	hit := false
	for _, s := range compareSignals(base, far) {
		if s.distinguishes() {
			if s.name != "fig21-r0" {
				t.Fatalf("unexpected signal %s fired", s.name)
			}
			hit = true
		}
	}
	if !hit {
		t.Fatal("fig21-r0 shift of -0.23 did not distinguish the regimes")
	}

	var buf bytes.Buffer
	WriteEngineComparison(&buf, Options{Scenario: api.Scenario{Seed: 1}, Hours: 12}, []EngineAudit{base, near, far})
	out := buf.String()
	for _, want := range []string{
		"engine-verdict: additive-vs-mult2015 distinguishable=false",
		"engine-verdict: withholding-vs-mult2015 distinguishable=true",
		"engine-signal: withholding-vs-mult2015 fig21-r0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison report missing %q:\n%s", want, out)
		}
	}
}
