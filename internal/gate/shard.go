// Package gate is the multi-city shard gateway: it fronts N uberd shards
// (each owning one city world, surge engine, and bus) and routes requests
// by GPS to the shard responsible for that region, with robustness as the
// design center — active health checks against each shard's /healthz and
// /readyz, per-shard circuit breakers on the data path, deterministic
// rendezvous rerouting inside a region when a replica dies, and graceful
// degradation (503 + Retry-After, never a wrong-city answer) when a whole
// region is down.
//
// The paper measured Uber as one logical service spanning SF and
// Manhattan through fleets of imperfect clients, and its methodology had
// to survive losing ~2.5% of samples without fabricating supply collapse.
// This package is the server-side counterpart of that discipline: the
// measurement plane keeps serving, labels what is missing, and sheds
// exactly the traffic it cannot answer correctly.
package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// ShardSpec declares one backend shard to the gateway.
type ShardSpec struct {
	// Name uniquely identifies the shard in metrics, logs, and the
	// X-Ubergate-Shard response header (e.g. "sf-0").
	Name string
	// Region names the RegionSpec whose traffic this shard serves.
	Region string
	// BaseURL is the shard's HTTP base, e.g. "http://127.0.0.1:18081".
	BaseURL string
}

// Shard is a backend shard plus the gateway's view of its health. The
// prober goroutine writes the state; the routing hot path only reads
// atomics.
//
// Health is two independent bits. alive is liveness: /healthz answered
// recently (flips down only after failThreshold consecutive probe
// failures, so one dropped packet doesn't evict a shard; flips up on the
// first success). ready is readiness: the shard's own /readyz verdict,
// applied immediately in both directions — a draining shard must leave
// the routing table on the very next probe, not after a threshold. The
// data-path breaker is the third, faster signal: transport errors and
// 5xx responses open it between probes, so a shard that dies mid-interval
// stops receiving traffic before the prober notices.
type Shard struct {
	ShardSpec

	breaker *chaos.Breaker

	alive   atomic.Bool
	ready   atomic.Bool
	simTime atomic.Int64 // last simulation time /healthz reported

	mUp    *obs.Gauge   // 1 while alive
	mReady *obs.Gauge   // 1 while ready
	mDown  *obs.Counter // transitions alive→down
	// mRequests caches the gateway's gate_requests_total counters by
	// status class (code/100), each set on its class's first response.
	mRequests [10]atomic.Pointer[obs.Counter]
}

// Alive reports the liveness probe state.
func (s *Shard) Alive() bool { return s.alive.Load() }

// Ready reports the readiness probe state.
func (s *Shard) Ready() bool { return s.ready.Load() }

// Eligible reports whether the routing table may offer this shard:
// alive, ready, and not currently rejected by its breaker. It does not
// consume a breaker probe slot (that happens when the shard is chosen).
func (s *Shard) Eligible() bool {
	return s.alive.Load() && s.ready.Load()
}

// SimTime returns the shard's last reported simulation time.
func (s *Shard) SimTime() int64 { return s.simTime.Load() }

// setAlive records a liveness transition.
func (s *Shard) setAlive(v bool) {
	if s.alive.Swap(v) == v {
		return
	}
	if v {
		s.mUp.Set(1)
	} else {
		s.mUp.Set(0)
		s.mDown.Inc()
	}
}

// setReady records a readiness transition.
func (s *Shard) setReady(v bool) {
	if s.ready.Swap(v) == v {
		return
	}
	if v {
		s.mReady.Set(1)
	} else {
		s.mReady.Set(0)
	}
}

// probeOnce runs one health-check round against the shard: liveness via
// /healthz (parsing the reported sim time), then readiness via /readyz.
// A shard that is not alive is never ready.
func (s *Shard) probeOnce(ctx context.Context, hc *http.Client, timeout time.Duration) (alive, ready bool) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var health struct {
		Time int64 `json:"time"`
	}
	if !probeGet(pctx, hc, s.BaseURL+"/healthz", &health) {
		return false, false
	}
	s.simTime.Store(health.Time)
	return true, probeGet(pctx, hc, s.BaseURL+"/readyz", nil)
}

// probeGet fetches url and reports 2xx, decoding the body into out when
// non-nil. Any transport error or non-2xx status is a failed probe.
func probeGet(ctx context.Context, hc *http.Client, url string, out any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return false
	}
	if out != nil {
		// Probe bodies are one-line JSON; a garbled body is a failed probe.
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false
		}
	}
	return true
}

// probeLoop is the per-shard health checker: an immediate probe, then one
// per interval until ctx ends. failThreshold consecutive liveness
// failures mark the shard down; one success marks it back up. Readiness
// follows the probe verdict immediately in both directions.
func (s *Shard) probeLoop(ctx context.Context, hc *http.Client, interval, timeout time.Duration) {
	fails := 0
	apply := func() {
		alive, ready := s.probeOnce(ctx, hc, timeout)
		if alive {
			fails = 0
			s.setAlive(true)
		} else {
			fails++
			if fails >= failThreshold {
				s.setAlive(false)
			}
		}
		s.setReady(alive && ready)
	}
	apply()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			apply()
		}
	}
}

// validate checks a spec before the gateway accepts it.
func (sp ShardSpec) validate() error {
	if sp.Name == "" || sp.Region == "" || sp.BaseURL == "" {
		return fmt.Errorf("gate: shard spec needs name, region, and base URL (got %+v)", sp)
	}
	return nil
}
