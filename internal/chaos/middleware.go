package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Middleware wraps next with fault injection driven by the injector's
// seeded decision stream. Injected faults are counted in reg as
// chaos_faults_total{kind="error"|"reset"|"truncate"}.
// A nil injector returns next unchanged.
func (i *Injector) Middleware(next http.Handler, reg *obs.Registry) http.Handler {
	if i == nil || !i.cfg.Enabled() {
		return next
	}
	faults := [4]*obs.Counter{
		FaultError:    reg.Counter("chaos_faults_total", obs.L("kind", "error")),
		FaultReset:    reg.Counter("chaos_faults_total", obs.L("kind", "reset")),
		FaultTruncate: reg.Counter("chaos_faults_total", obs.L("kind", "truncate")),
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := i.Decide()
		if d.Delay > 0 {
			time.Sleep(d.Delay)
		}
		switch d.Fault {
		case FaultError:
			faults[FaultError].Inc()
			i.fireFault(FaultError, r.URL.Path)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"chaos: injected server error"}`)
		case FaultReset:
			faults[FaultReset].Inc()
			i.fireFault(FaultReset, r.URL.Path)
			// net/http treats ErrAbortHandler as "drop the connection
			// without replying": the client observes a reset/EOF.
			panic(http.ErrAbortHandler)
		case FaultTruncate:
			faults[FaultTruncate].Inc()
			i.fireFault(FaultTruncate, r.URL.Path)
			i.truncate(w, r, next)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// truncate runs the real handler against a buffer, replays the status and
// headers with the full Content-Length, writes only half the body, and
// aborts the connection — the client sees a well-formed response cut off
// mid-body (unexpected EOF on decode).
func (i *Injector) truncate(w http.ResponseWriter, r *http.Request, next http.Handler) {
	rec := &bufferedResponse{status: http.StatusOK, header: make(http.Header)}
	next.ServeHTTP(rec, r)
	for k, vs := range rec.header {
		w.Header()[k] = vs
	}
	body := rec.body.Bytes()
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.status)
	if len(body) > 1 {
		_, _ = w.Write(body[:len(body)/2])
	}
	// Flush so the half body actually reaches the wire; the abort below
	// would otherwise discard the buffered bytes along with the connection
	// and the client would see a bare EOF instead of a truncated response.
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// bufferedResponse captures a handler's full response for truncation.
type bufferedResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (b *bufferedResponse) Header() http.Header         { return b.header }
func (b *bufferedResponse) Write(p []byte) (int, error) { return b.body.Write(p) }
func (b *bufferedResponse) WriteHeader(code int)        { b.status = code }

// Recover wraps next so a panicking handler answers 500 instead of killing
// the connection (and, unrecovered, the whole server loop in handlers that
// spawn goroutines). Panics are counted as server_panics_total.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// connection (the fault injector and net/http itself both use it).
func Recover(next http.Handler, reg *obs.Registry) http.Handler {
	panics := reg.Counter("server_panics_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && err == http.ErrAbortHandler {
				panic(rec)
			}
			panics.Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"internal server error"}`)
		}()
		next.ServeHTTP(w, r)
	})
}

// Shed applies admission control: when more than maxInFlight requests are
// already being served, new arrivals are rejected immediately with
// 503 + Retry-After instead of queueing until the whole server tips over.
// Shed requests are counted as server_shed_total.
func Shed(next http.Handler, maxInFlight int, retryAfter time.Duration, reg *obs.Registry) http.Handler {
	if maxInFlight <= 0 {
		return next
	}
	shed := reg.Counter("server_shed_total")
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	retryVal := strconv.Itoa(secs)
	var inflight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		if n > int64(maxInFlight) {
			shed.Inc()
			w.Header().Set("Retry-After", retryVal)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"overloaded, retry later"}`)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// DeadlineHeader is the wire header carrying a request's remaining
// deadline budget in integer milliseconds. The gateway stamps it on every
// forwarded request (and the resilient client on calls whose context has a
// deadline); shards clamp their per-request timeout to it, so a slow shard
// cannot hold gateway or client connections past the caller's own timeout.
const DeadlineHeader = "X-Request-Deadline-Ms"

// EffectiveTimeout resolves the handler budget for r: the configured max
// clamped to the caller-propagated DeadlineHeader when one is present and
// tighter. max <= 0 means "no local limit" (the header alone governs);
// 0 is returned only when neither side imposes a bound.
func EffectiveTimeout(r *http.Request, max time.Duration) time.Duration {
	d := max
	if v := r.Header.Get(DeadlineHeader); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms > 0 {
			if hd := time.Duration(ms) * time.Millisecond; d <= 0 || hd < d {
				d = hd
			}
		}
	}
	return d
}

// Timeout bounds each request's handler time at min(d, the caller's
// propagated DeadlineHeader); requests that exceed the budget answer
// 503 (counted as server_timeouts_total). Requests whose header tightened
// the local limit are counted as server_deadline_clamped_total. Unlike
// http.TimeoutHandler the budget is resolved per request, which is what
// deadline propagation across the gateway hop needs.
//
// The handler runs in a goroutine against a buffered response; on timeout
// the buffer is discarded and the goroutine's eventual writes go nowhere.
// Handler panics are re-raised on the serving goroutine (matching
// http.TimeoutHandler), so Recover/ErrAbortHandler semantics compose.
func Timeout(next http.Handler, d time.Duration, reg *obs.Registry) http.Handler {
	timeouts := reg.Counter("server_timeouts_total")
	clamped := reg.Counter("server_deadline_clamped_total")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		budget := EffectiveTimeout(r, d)
		if budget != d {
			clamped.Inc()
		}
		if budget <= 0 { // neither a local limit nor a propagated one
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), budget)
		defer cancel()
		r = r.WithContext(ctx)
		rec := &bufferedResponse{status: http.StatusOK, header: make(http.Header)}
		done := make(chan struct{})
		panicCh := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicCh <- p
					return
				}
				close(done)
			}()
			next.ServeHTTP(rec, r)
		}()
		select {
		case <-done:
			for k, vs := range rec.header {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.status)
			_, _ = w.Write(rec.body.Bytes())
		case p := <-panicCh:
			panic(p)
		case <-ctx.Done():
			timeouts.Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"request timed out"}`)
		}
	})
}
