package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/geo"
	"repro/internal/obs"
)

// Config parameterizes a Gateway.
type Config struct {
	// Regions declares the routable city regions.
	Regions []RegionSpec
	// Shards declares the backend shards (each referencing a region).
	Shards []ShardSpec

	// HealthInterval is the active probe period (default 500ms); a dead
	// or draining shard leaves the routing table within one interval.
	HealthInterval time.Duration
	// HealthTimeout bounds one probe round (default HealthInterval).
	HealthTimeout time.Duration
	// RetryAfter is advertised on 503 shed responses (default 1s).
	RetryAfter time.Duration

	// Registry receives gateway metrics (private one when nil).
	Registry *obs.Registry
	// HTTPClient overrides the proxy/probe transport (httptest servers
	// pass theirs). The default pools enough idle connections per shard
	// to carry a loadgen fleet.
	HTTPClient *http.Client
}

// forwardTimeout bounds one proxied request, further clamped per request
// by the caller's propagated deadline.
const forwardTimeout = 5 * time.Second

func (c *Config) defaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = c.HealthInterval
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{
			Timeout: forwardTimeout + time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
			},
		}
	}
}

// login is one remembered registration (client or partner), replayed into
// a shard that answers 401 for its account (see relogin).
type login struct {
	path string
	body []byte
}

// Gateway fronts the shard fleet. Create with NewGateway, wire its
// handlers into a mux (or use Handler), call Start to begin health
// probing, Close to stop.
type Gateway struct {
	cfg    Config
	router *Router
	shards []*Shard
	ready  *api.Readiness

	mu     sync.Mutex
	logins map[string]login // key: path + client id

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mReroutes  *obs.Counter
	mSheds     func(region string) *obs.Counter
	mProxyErrs *obs.Counter
	mRelogins  *obs.Counter
}

// NewGateway validates cfg and builds the gateway (probing starts with
// Start). All shards begin down: the synchronous first probe round in
// Start brings the live ones up before the listener should open.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg.defaults()
	reg := cfg.Registry
	g := &Gateway{
		cfg:    cfg,
		logins: make(map[string]login),
		ready:  api.NewReadiness(),
	}
	for _, spec := range cfg.Shards {
		if err := spec.validate(); err != nil {
			return nil, err
		}
		// The data-path breaker opens after 3 failed forwards and probes
		// again after two health intervals.
		s := &Shard{
			ShardSpec: spec,
			breaker:   chaos.NewBreaker(chaos.BreakerConfig{Threshold: 3, Cooldown: 2 * cfg.HealthInterval}),
			mUp:       reg.Gauge("gate_shard_up", obs.L("shard", spec.Name)),
			mDown:     reg.Counter("gate_shard_down_total", obs.L("shard", spec.Name)),
		}
		g.shards = append(g.shards, s)
	}
	if len(g.shards) == 0 {
		return nil, errors.New("gate: no shards configured")
	}
	router, err := NewRouter(cfg.Regions, g.shards)
	if err != nil {
		return nil, err
	}
	g.router = router
	g.ready.AddCheck("shards", g.AnyEligible)

	g.mReroutes = reg.Counter("gate_reroutes_total")
	g.mSheds = func(region string) *obs.Counter {
		return reg.Counter("gate_shed_total", obs.L("region", region))
	}
	g.mProxyErrs = reg.Counter("gate_proxy_errors_total")
	g.mRelogins = reg.Counter("gate_relogins_total")
	return g, nil
}

// Start runs the first probe round synchronously (so the routing table
// reflects reality before the first request) and then launches the
// per-shard health-check loops, whose first round is one interval later.
func (g *Gateway) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	var first sync.WaitGroup
	for _, s := range g.shards {
		first.Add(1)
		go func(s *Shard) {
			defer first.Done()
			s.probeOnce(ctx, g.cfg.HTTPClient, g.cfg.HealthTimeout)
		}(s)
	}
	first.Wait()
	for _, s := range g.shards {
		g.wg.Add(1)
		go func(s *Shard) {
			defer g.wg.Done()
			s.probeLoop(ctx, g.cfg.HTTPClient, g.cfg.HealthInterval, g.cfg.HealthTimeout)
		}(s)
	}
}

// Close stops the health-check loops.
func (g *Gateway) Close() {
	if g.cancel != nil {
		g.cancel()
	}
	g.wg.Wait()
}

// AnyEligible reports whether at least one shard can take traffic — the
// gateway's own readiness condition.
func (g *Gateway) AnyEligible() bool {
	for _, s := range g.shards {
		if s.Eligible() {
			return true
		}
	}
	return false
}

// Shards exposes the shard fleet (tests, status pages).
func (g *Gateway) Shards() []*Shard { return g.shards }

// Router exposes the routing table (tests).
func (g *Gateway) Router() *Router { return g.router }

// Readiness exposes the gateway's readiness state machine so the daemon
// can add its own checks and flip draining on shutdown.
func (g *Gateway) Readiness() *api.Readiness { return g.ready }

// APIHandler returns the forwarding surface: every endpoint uberd serves,
// routed by GPS (GETs) or broadcast (logins). Mount it at / — and wrap it
// in whatever chaos middleware the deployment wants; the health and
// metrics handlers stay outside so the gateway remains observable while
// being tortured.
func (g *Gateway) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /login", g.handleLogin("/login", "client_id"))
	mux.HandleFunc("POST /partner/login", g.handleLogin("/partner/login", "driver_id"))
	mux.HandleFunc("GET /pingClient", g.handleRouted)
	mux.HandleFunc("GET /estimates/price", g.handleRouted)
	mux.HandleFunc("GET /estimates/time", g.handleRouted)
	mux.HandleFunc("GET /partner/surgeMap", g.handleSurgeMap)
	mux.HandleFunc("GET /health", g.handleHealth)
	return mux
}

// Handler assembles the full gateway mux: the API surface at /, the
// fan-in /metrics, and the gateway's own /healthz + /readyz (cmd/ubergate
// builds its own mux so it can wrap only the API surface in chaos
// middleware; tests use this one).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", g.APIHandler())
	mux.Handle("GET /metrics", g.MetricsHandler())
	mux.Handle("GET /healthz", api.Healthz(nil))
	mux.Handle("GET /readyz", g.ready.Handler())
	return mux
}

// shed answers 503 + Retry-After for a region with no eligible shard.
func (g *Gateway) shed(w http.ResponseWriter, region string) {
	g.mSheds(region).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(max(1, int(g.cfg.RetryAfter/time.Second))))
	api.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("region %s temporarily unavailable", region))
}

// handleRouted proxies a GPS-keyed GET to its shard: route, forward,
// reroute once around a transport failure, re-login once on a 401 from a
// shard that lost the account (a recovered shard with an empty table),
// and shed with 503 + Retry-After when the region is down.
func (g *Gateway) handleRouted(w http.ResponseWriter, r *http.Request) {
	loc, err := api.QueryLoc(r.URL.Query())
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.routeAndForward(w, r, loc)
}

// handleSurgeMap routes the partner surge map, which carries no GPS of
// its own: by lat/lng when the caller supplies them, else by explicit
// region= parameter, else — with exactly one region configured — to it.
func (g *Gateway) handleSurgeMap(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("lat") != "" || q.Get("lng") != "" {
		g.handleRouted(w, r)
		return
	}
	name := q.Get("region")
	if name == "" && len(g.router.regions) == 1 {
		name = g.router.regions[0].spec.Name
	}
	rg, ok := g.router.byName[name]
	if !ok {
		api.WriteError(w, http.StatusBadRequest, "region parameter required (or lat/lng)")
		return
	}
	// Route at the region's origin: a deterministic representative cell.
	g.routeAndForward(w, r, rg.spec.Origin)
}

// routeAndForward runs the full ladder: pick → forward → reroute once
// inside the region (or relogin) → shed with 503 + Retry-After. A request
// never leaves its region.
func (g *Gateway) routeAndForward(w http.ResponseWriter, r *http.Request, loc geo.LatLng) {
	route, err := g.router.Pick(loc)
	if err != nil {
		g.routeFail(w, err)
		return
	}
	g.countRoute(route)
	resp, err := g.do(route.Shard, r)
	if err != nil {
		// Transport failure: the shard never answered. Reroute once to
		// the next-ranked eligible shard; GETs are idempotent.
		g.mProxyErrs.Inc()
		retry, rerr := g.router.Pick(loc, route.Shard)
		if rerr != nil {
			g.routeFail(w, rerr)
			return
		}
		g.countRoute(retry)
		resp, err = g.do(retry.Shard, r)
		if err != nil {
			g.mProxyErrs.Inc()
			g.shed(w, retry.Region)
			return
		}
		route = retry
	}
	if resp.StatusCode == http.StatusUnauthorized {
		if resp2, ok := g.relogin(route.Shard, r); ok {
			resp.Body.Close()
			resp = resp2
		}
	}
	g.relay(w, route.Shard, resp)
}

// routeFail translates a routing error into the client-facing response.
func (g *Gateway) routeFail(w http.ResponseWriter, err error) {
	var re *RouteError
	if errors.As(err, &re) {
		g.shed(w, re.Region)
		return
	}
	// Out of every region: same shape and status as api.ErrOutOfService,
	// so clients cannot tell a gateway edge from a shard edge.
	api.WriteError(w, http.StatusNotFound, api.ErrOutOfService.Error())
}

// countRoute bumps the reroute counter for a pick that left its primary.
func (g *Gateway) countRoute(route Route) {
	if route.Rerouted() {
		g.mReroutes.Inc()
	}
}

// do forwards r to the shard with the remaining deadline propagated, and
// reports the outcome to the shard's breaker (any HTTP answer below 500
// proves the shard alive; transport errors and 5xx count as failures).
func (g *Gateway) do(s *Shard, r *http.Request) (*http.Response, error) {
	budget := forwardTimeout
	if dl, ok := r.Context().Deadline(); ok {
		if rem := time.Until(dl); rem < budget {
			budget = rem
		}
	}
	if hd := chaos.EffectiveTimeout(r, 0); hd > 0 && hd < budget {
		budget = hd
	}
	if budget <= 0 {
		return nil, context.DeadlineExceeded
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	req, err := http.NewRequestWithContext(ctx, r.Method, s.BaseURL+r.URL.RequestURI(), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	req.Header.Set(chaos.DeadlineHeader, strconv.FormatInt(budget.Milliseconds(), 10))
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		cancel()
		s.breaker.Report(false)
		return nil, err
	}
	// Hand the cancel to the response body: relay closes it after copying.
	resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
	s.breaker.Report(resp.StatusCode < 500)
	return resp, nil
}

// cancelBody releases the forward's context when the relayed body closes.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// relay copies a shard response to the client, labeling which shard
// served it.
func (g *Gateway) relay(w http.ResponseWriter, s *Shard, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Ubergate-Shard", s.Name)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	g.requests(s, resp.StatusCode).Inc()
}

// requests returns shard s's gate_requests_total counter for code's status
// class. The class's first response looks it up in the registry and caches
// it on the shard, so later requests take no registry lock.
func (g *Gateway) requests(s *Shard, code int) *obs.Counter {
	var slot *atomic.Pointer[obs.Counter]
	if class := code / 100; class >= 0 && class < len(s.mRequests) {
		slot = &s.mRequests[class]
		if c := slot.Load(); c != nil {
			return c
		}
	}
	c := g.cfg.Registry.Counter("gate_requests_total", obs.L("shard", s.Name), obs.L("class", statusClass(code)))
	if slot != nil {
		slot.Store(c)
	}
	return c
}

func statusClass(code int) string {
	return strconv.Itoa(code/100) + "xx"
}

// relogin replays a remembered registration into a shard that answered
// 401 (it lost its account table — a restart or a replacement process) and
// retries the original request once.
func (g *Gateway) relogin(s *Shard, r *http.Request) (*http.Response, bool) {
	client := r.URL.Query().Get("client")
	if client == "" {
		client = r.URL.Query().Get("driver")
	}
	g.mu.Lock()
	l, ok := g.logins["/login\x00"+client]
	if !ok {
		l, ok = g.logins["/partner/login\x00"+client]
	}
	g.mu.Unlock()
	if !ok {
		return nil, false
	}
	if !g.postLogin(context.Background(), s, l) {
		return nil, false
	}
	g.mRelogins.Inc()
	resp, err := g.do(s, r)
	if err != nil {
		return nil, false
	}
	return resp, true
}

// handleLogin broadcasts a registration to every currently eligible
// shard and remembers it for relogin. One acknowledging shard is enough
// to answer 200: the account exists somewhere, and relogin heals any
// shard that lacks it on its first query for the account — refusing the
// login because one replica is mid-crash would fail work the fleet can
// absorb.
func (g *Gateway) handleLogin(path, idField string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 4<<10))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "unreadable body")
			return
		}
		var fields map[string]any
		var id string
		if err := json.Unmarshal(body, &fields); err == nil {
			id, _ = fields[idField].(string)
		}
		if id == "" {
			api.WriteError(w, http.StatusBadRequest, idField+" required")
			return
		}
		l := login{path: path, body: body}
		g.mu.Lock()
		g.logins[path+"\x00"+id] = l
		g.mu.Unlock()

		acks := 0
		for _, s := range g.shards {
			if !s.Eligible() {
				continue
			}
			if g.postLogin(r.Context(), s, l) {
				acks++
			}
		}
		if acks == 0 {
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int(g.cfg.RetryAfter/time.Second))))
			api.WriteError(w, http.StatusServiceUnavailable, "no shard accepted the registration")
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
}

// postLogin posts one remembered registration to one shard.
func (g *Gateway) postLogin(ctx context.Context, s *Shard, l login) bool {
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.BaseURL+l.path, bytes.NewReader(l.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.cfg.HTTPClient.Do(req)
	if err != nil {
		s.breaker.Report(false)
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
	}()
	s.breaker.Report(resp.StatusCode < 500)
	return resp.StatusCode == http.StatusOK
}

// handleHealth answers /health with the maximum simulation time across
// eligible shards — each shard runs its own world, and the campaign
// client only needs a monotone clock — or 503 when no shard is eligible.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	best, any := int64(0), false
	for _, s := range g.shards {
		if !s.Eligible() {
			continue
		}
		any = true
		if t := s.SimTime(); t > best {
			best = t
		}
	}
	if !any {
		w.Header().Set("Retry-After", strconv.Itoa(max(1, int(g.cfg.RetryAfter/time.Second))))
		api.WriteError(w, http.StatusServiceUnavailable, "no shard eligible")
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]int64{"time": best})
}
