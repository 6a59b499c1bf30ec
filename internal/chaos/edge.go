package chaos

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Edge is the policy both daemons (uberd and the ubergate in front of it)
// put between the network and their API handler: admission control, seeded
// fault injection, panic recovery and a per-request timeout, plus the
// readiness-drain window api.Serve holds before closing the listener.
// Health, readiness and metrics handlers are mounted outside Wrap so the
// process stays observable while it is being tortured.
type Edge struct {
	Faults         Config
	MaxInflight    int
	RetryAfter     time.Duration
	RequestTimeout time.Duration
	Drain          time.Duration
}

// Flags registers the edge's ten flags on fs. The request timeout's
// default is the one value the daemons disagree on (a gateway must outlast
// the shard it forwards to).
func (e *Edge) Flags(fs *flag.FlagSet, defaultRequestTimeout time.Duration) {
	fs.Int64Var(&e.Faults.Seed, "chaos-seed", 1, "fault-injection seed (same seed replays the same fault sequence)")
	fs.Float64Var(&e.Faults.ErrorProb, "chaos-error", 0, "probability of answering a request with an injected 500")
	fs.Float64Var(&e.Faults.ResetProb, "chaos-reset", 0, "probability of aborting a request's connection")
	fs.Float64Var(&e.Faults.TruncateProb, "chaos-truncate", 0, "probability of truncating a response body")
	fs.Float64Var(&e.Faults.LatencyProb, "chaos-latency-prob", 0, "probability of delaying a request")
	fs.DurationVar(&e.Faults.Latency, "chaos-latency", 0, "maximum injected delay (actual delay uniform up to this)")
	fs.IntVar(&e.MaxInflight, "max-inflight", 0, "shed load with 503 above this many in-flight requests (0 = unlimited)")
	fs.DurationVar(&e.RetryAfter, "retry-after", time.Second, "Retry-After advertised on shed responses")
	fs.DurationVar(&e.RequestTimeout, "request-timeout", defaultRequestTimeout, "per-request handler timeout (0 = header-only)")
	fs.DurationVar(&e.Drain, "drain", 500*time.Millisecond, "readiness-drain delay before shutdown closes the listener")
}

// Validate rejects a fault mix Decide cannot honour, naming the flag at
// fault: a probability outside [0, 1] (a negative one silently shifts the
// cumulative bands of the ones after it), error + reset + truncate above 1
// (they partition one uniform draw), or a negative delay.
func (c Config) Validate() error {
	for _, p := range []struct {
		flag string
		v    float64
	}{
		{"-chaos-error", c.ErrorProb},
		{"-chaos-reset", c.ResetProb},
		{"-chaos-truncate", c.TruncateProb},
		{"-chaos-latency-prob", c.LatencyProb},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s %v: not a probability in [0, 1]", p.flag, p.v)
		}
	}
	if sum := c.ErrorProb + c.ResetProb + c.TruncateProb; sum > 1 {
		return fmt.Errorf("-chaos-error + -chaos-reset + -chaos-truncate = %v: at most one fires per request, so they must sum to at most 1", sum)
	}
	if c.Latency < 0 {
		return fmt.Errorf("-chaos-latency %s: must not be negative", c.Latency)
	}
	return nil
}

// String renders the fault mix for the daemons' start-up log line.
func (c Config) String() string {
	return fmt.Sprintf("seed %d, error %.3f, reset %.3f, truncate %.3f, latency %.3f up to %s",
		c.Seed, c.ErrorProb, c.ResetProb, c.TruncateProb, c.LatencyProb, c.Latency)
}

// Injector validates the parsed fault flags and builds their injector:
// nil (which never injects) when no fault is enabled.
func (e *Edge) Injector() (*Injector, error) {
	if err := e.Faults.Validate(); err != nil {
		return nil, err
	}
	if !e.Faults.Enabled() {
		return nil, nil
	}
	return NewInjector(e.Faults), nil
}

// Wrap puts h behind the edge, outermost first: shedding rejects before
// any work is done, fault injection sees only admitted requests, recovery
// turns handler panics into 500s, and the timeout bounds the real handler.
func (e *Edge) Wrap(h http.Handler, inj *Injector, reg *obs.Registry) http.Handler {
	h = Timeout(h, e.RequestTimeout, reg)
	h = Recover(h, reg)
	h = inj.Middleware(h, reg)
	return Shed(h, e.MaxInflight, e.RetryAfter, reg)
}
