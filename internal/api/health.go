package api

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Readiness is the readiness state machine a serving process exposes on
// GET /readyz: ready iff it is not draining and every registered check
// passes. Liveness (GET /healthz) is separate and unconditional — a
// process that can answer at all is alive; readiness is the signal the
// gateway's health prober gates routing on.
//
// The draining flag exists for graceful shutdown: a shard flips it before
// its HTTP server closes, so the gateway stops routing new requests to it
// while in-flight ones finish, instead of discovering the closure as
// connection errors.
type Readiness struct {
	draining atomic.Bool

	mu     sync.Mutex
	checks []readyCheck
}

type readyCheck struct {
	name string
	fn   func() bool
}

// NewReadiness returns a Readiness with no checks: ready until draining.
func NewReadiness() *Readiness { return &Readiness{} }

// AddCheck registers a named readiness condition. Checks are evaluated on
// every /readyz request, so fn must be cheap and safe for concurrent use.
func (rd *Readiness) AddCheck(name string, fn func() bool) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.checks = append(rd.checks, readyCheck{name: name, fn: fn})
}

// SetDraining marks the process as draining (failing readiness) or back in
// service.
func (rd *Readiness) SetDraining(v bool) { rd.draining.Store(v) }

// Draining reports whether the process is draining.
func (rd *Readiness) Draining() bool { return rd.draining.Load() }

// Ready evaluates the state: true with "" when ready, else false with the
// reason (the word "draining" or the first failing check's name).
func (rd *Readiness) Ready() (bool, string) {
	if rd == nil {
		return true, ""
	}
	if rd.draining.Load() {
		return false, "draining"
	}
	rd.mu.Lock()
	checks := rd.checks
	rd.mu.Unlock()
	for _, c := range checks {
		if !c.fn() {
			return false, c.name
		}
	}
	return true, ""
}

// Handler serves GET /readyz: 200 {"ready":true} when ready,
// 503 {"ready":false,"reason":...} when not.
func (rd *Readiness) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := rd.Ready(); !ok {
			WriteJSON(w, http.StatusServiceUnavailable,
				map[string]any{"ready": false, "reason": reason})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ready": true})
	})
}

// Serve runs srv until ctx is done, then shuts it down in the order a
// fronting gateway (or any prober of /readyz) needs: fail readiness, hold
// the listener open for the drain window so the prober sees "draining" and
// routes around this process, then close it and give in-flight requests
// five seconds to finish. It returns nil after a clean shutdown and the
// listener's error when srv could not serve at all.
func Serve(ctx context.Context, srv *http.Server, ready *Readiness, drain time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	ready.SetDraining(true)
	time.Sleep(drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// Healthz serves GET /healthz: liveness plus the backend's simulation
// time, 200 for as long as the process can answer at all. now may be nil
// (the gateway has no simulation clock of its own).
func Healthz(now func() int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{"status": "ok"}
		if now != nil {
			body["time"] = now()
		}
		WriteJSON(w, http.StatusOK, body)
	})
}
