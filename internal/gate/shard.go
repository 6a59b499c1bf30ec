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
// Health is one verdict: a shard is up while its last probe round got a
// 2xx from both /healthz and /readyz, and down from the first round that
// did not — a dead shard and a draining one leave the routing table on
// the very next probe. The data-path breaker is the faster signal:
// transport errors and 5xx responses open it between probes, so a shard
// that dies mid-interval stops receiving traffic before the prober
// notices.
type Shard struct {
	ShardSpec

	breaker *chaos.Breaker

	up      atomic.Bool
	simTime atomic.Int64 // last simulation time /healthz reported

	mUp   *obs.Gauge   // 1 while up
	mDown *obs.Counter // transitions up→down
	// mRequests caches the gateway's gate_requests_total counters by
	// status class (code/100), each set on its class's first response.
	mRequests [10]atomic.Pointer[obs.Counter]
}

// Eligible reports whether the last probe round found the shard up. The
// breaker is not consulted here: Pick asks it only of the shard it
// chooses, so a rank lookup never consumes a breaker probe slot.
func (s *Shard) Eligible() bool { return s.up.Load() }

// SimTime returns the shard's last reported simulation time.
func (s *Shard) SimTime() int64 { return s.simTime.Load() }

// setUp records one probe round's verdict.
func (s *Shard) setUp(v bool) {
	if s.up.Swap(v) == v {
		return
	}
	if v {
		s.mUp.Set(1)
	} else {
		s.mUp.Set(0)
		s.mDown.Inc()
	}
}

// probeOnce runs one health-check round against the shard — /healthz
// (parsing the reported sim time), then /readyz — and records whether
// both answered 2xx.
func (s *Shard) probeOnce(ctx context.Context, hc *http.Client, timeout time.Duration) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var health struct {
		Time int64 `json:"time"`
	}
	if !probeGet(pctx, hc, s.BaseURL+"/healthz", &health) {
		s.setUp(false)
		return
	}
	s.simTime.Store(health.Time)
	s.setUp(probeGet(pctx, hc, s.BaseURL+"/readyz", nil))
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

// probeLoop is the per-shard health checker after Start's first round:
// one probe round per interval until ctx ends.
func (s *Shard) probeLoop(ctx context.Context, hc *http.Client, interval, timeout time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.probeOnce(ctx, hc, timeout)
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
