package api

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
)

// maxLoginBody caps the JSON body accepted by the login endpoints so a
// hostile client cannot stream an unbounded request.
const maxLoginBody = 4 << 10 // 4 KiB

// Server exposes a Service over HTTP with the endpoint shapes the paper
// scripts against:
//
//	POST /login            {"client_id": "..."}        -> {"ok": true}
//	GET  /pingClient       ?client=...&lat=..&lng=..   -> core.PingResponse
//	GET  /estimates/price  ?client=...&lat=..&lng=..   -> []core.PriceEstimate
//	GET  /estimates/time   ?client=...&lat=..&lng=..   -> []core.TimeEstimate
//	GET  /health                                       -> {"time": <sim seconds>}
//
// The HTTP layer is a thin shell: all behaviour (jitter, rate limits,
// visibility) lives in Service so the in-process and HTTP paths cannot
// diverge.
//
// When built with WithMetrics, every endpoint records request counts by
// status class and a latency histogram under the "endpoint" label; with
// WithTracer, each request leaves a span named "http" carrying endpoint
// and status attributes.
type Server struct {
	svc    *Service
	mux    *http.ServeMux
	reg    *obs.Registry
	tracer *obs.Tracer
	ready  *Readiness
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMetrics wires per-endpoint request/latency metrics into reg.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.reg = reg }
}

// WithTracer records one span per request into t.
func WithTracer(t *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithReadiness serves GET /readyz from rd instead of the default
// (epoch-published) readiness, so a daemon can fold draining and bus
// state into the same endpoint the gateway probes.
func WithReadiness(rd *Readiness) ServerOption {
	return func(s *Server) { s.ready = rd }
}

// NewServer wraps svc in an HTTP handler.
func NewServer(svc *Service, opts ...ServerOption) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.ready == nil {
		s.ready = NewReadiness()
		s.ready.AddCheck("epoch", svc.EpochPublished)
	}
	s.route("POST /login", "/login", s.handleLogin)
	s.route("GET /pingClient", "/pingClient", s.handlePing)
	s.route("GET /estimates/price", "/estimates/price", query(svc.EstimatePrice))
	s.route("GET /estimates/time", "/estimates/time", query(svc.EstimateTime))
	s.route("GET /health", "/health", s.handleHealth)
	s.route("POST /partner/login", "/partner/login", s.handlePartnerLogin)
	s.route("GET /partner/surgeMap", "/partner/surgeMap", s.handlePartnerMap)
	// Liveness and readiness are not instrumented endpoints: they are the
	// gateway prober's signal and must stay cheap and unconditional.
	s.mux.Handle("GET /healthz", Healthz(svc.Now))
	s.mux.Handle("GET /readyz", s.ready.Handler())
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusRecorder captures the response status for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// route registers pattern on the mux with metrics/tracing instrumentation
// keyed by the stable endpoint name.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	if s.reg == nil && s.tracer == nil {
		s.mux.HandleFunc(pattern, h)
		return
	}
	// Resolve metric handles once per endpoint, not per request: the
	// status-class counters and the latency histogram are the hot path.
	lbl := obs.L("endpoint", endpoint)
	classes := [4]*obs.Counter{
		s.reg.Counter("http_requests_total", lbl, obs.L("class", "2xx")),
		s.reg.Counter("http_requests_total", lbl, obs.L("class", "3xx")),
		s.reg.Counter("http_requests_total", lbl, obs.L("class", "4xx")),
		s.reg.Counter("http_requests_total", lbl, obs.L("class", "5xx")),
	}
	hist := s.reg.Histogram("http_request_duration_seconds", obs.DefLatencyBuckets, lbl)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		dur := time.Since(start)
		hist.ObserveDuration(dur)
		if i := rec.status/100 - 2; i >= 0 && i < len(classes) {
			classes[i].Inc()
		}
		// Specific counters for the statuses the paper's measurement
		// campaign cares about (rate limiting and bad probes).
		switch rec.status {
		case http.StatusTooManyRequests:
			s.reg.Counter("http_requests_total", lbl, obs.L("class", "429")).Inc()
		case http.StatusBadRequest:
			s.reg.Counter("http_requests_total", lbl, obs.L("class", "400")).Inc()
		}
		s.tracer.Record("http", start, dur, lbl,
			obs.L("status", strconv.Itoa(rec.status)))
	})
}

// WriteJSON answers status with v as the JSON body. Exported, with
// WriteError and QueryLoc, because the gateway must answer for itself in
// exactly the shapes a shard would: a client cannot tell a gateway edge
// from a shard edge.
//
// The body is encoded into a pooled buffer before the header goes out, so a
// value encoding/json refuses (a NaN position) is answered 500 with the
// error body instead of a 200 with nothing after it. Content-Length is left
// to net/http although it is known here: declaring it on a large body lets
// the client see the body's end before this handler has returned, and so
// before route has recorded the request.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := getBody()
	defer putBody(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, status, buf.Bytes())
}

// writeBody answers status with an encoded JSON body.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError answers status with the API's one error body, {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownAccount):
		status = http.StatusUnauthorized
	case errors.Is(err, ErrRateLimited):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrOutOfService):
		status = http.StatusNotFound
	}
	WriteError(w, status, err.Error())
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var body struct {
		ClientID string `json:"client_id"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxLoginBody)
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.ClientID == "" {
		WriteError(w, http.StatusBadRequest, "client_id required")
		return
	}
	if err := s.svc.Register(body.ClientID); err != nil {
		writeErr(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// QueryLoc extracts the location of a GPS-keyed GET from its parsed query.
// Coordinates must be finite: strconv.ParseFloat accepts "NaN" and "Inf",
// which would otherwise flow into the geo math.
func QueryLoc(q url.Values) (geo.LatLng, error) {
	lat, err := strconv.ParseFloat(q.Get("lat"), 64)
	if err != nil || math.IsNaN(lat) || math.IsInf(lat, 0) {
		return geo.LatLng{}, errors.New("lat parameter invalid")
	}
	lng, err := strconv.ParseFloat(q.Get("lng"), 64)
	if err != nil || math.IsNaN(lng) || math.IsInf(lng, 0) {
		return geo.LatLng{}, errors.New("lng parameter invalid")
	}
	return geo.LatLng{Lat: lat, Lng: lng}, nil
}

// queryArgs reads the account and location of a per-account GPS query,
// answering 400 when either is missing or invalid.
func queryArgs(w http.ResponseWriter, r *http.Request) (client string, loc geo.LatLng, ok bool) {
	q := r.URL.Query()
	if client = q.Get("client"); client == "" {
		WriteError(w, http.StatusBadRequest, "client parameter required")
		return "", loc, false
	}
	loc, err := QueryLoc(q)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return "", loc, false
	}
	return client, loc, true
}

// query adapts one of the Service's estimate queries to HTTP: the two
// endpoints differ only in the call and its response type.
func query[T any](call func(client string, loc geo.LatLng) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client, loc, ok := queryArgs(w, r)
		if !ok {
			return
		}
		resp, err := call(client, loc)
		if err != nil {
			writeErr(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, resp)
	}
}

// handlePing answers /pingClient with the body the ping walk appends from
// the pinned epoch into a pooled buffer: the bytes WriteJSON writes for
// PingClient's response, a value encoding/json refuses answered 500 with
// its error, without building the response or holding any of its paths.
func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	client, loc, ok := queryArgs(w, r)
	if !ok {
		return
	}
	buf := getBody()
	defer putBody(buf)
	if err := s.svc.ping(client, loc, &buf.ping); err != nil {
		writeErr(w, err)
		return
	}
	body, err := buf.ping.End()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]int64{"time": s.svc.Now()})
}
