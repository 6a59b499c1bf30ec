package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/gate"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/surge"
)

var serveGateway = &workload{
	name: "serve_gateway",
	why: "what a user of the service feels: api.Remote clients over loopback TCP, through the gateway, to three city shards; " +
		"api (HTTP, JSON, auth) does most of the work, gate a tenth, sim almost none",
	unit:         "request",
	opsPerSecond: 2400,
	setups:       5,
	setup:        setupServe,
}

const (
	rushStart       = 15 * 3600 // Monday 15:00: every world starts here, and every tick stays on the flat 15:00-20:00 plateau
	worldSeed       = 1         // simulator seeds are fixed (shard i gets worldSeed+i); -seed draws the load only
	serveAccounts   = 4096
	serveStepEvery  = 250 // client 0 advances all shards after this many of its requests
	serveFleetScale = 24
	replayEvery     = 16 // traced pass: every n-th ping is replayed in-process on its shard
	pickCalls       = 10000
)

// simWorkers is sim.Config.Workers of every world the workloads measure. It
// should be 0 (all cores), as uberd and the experiments run: but the parallel
// move phase grows World.shardRngs from inside its workers
// (internal/sim/parallel.go, pooledShardRand), a data race on the first tick
// of any world with more than one shard, and it killed 2 of some 75 tick_100k
// runs with a nil dereference. Until that is fixed the worlds step serially.
const simWorkers = 1

// newBackend builds one city backend at the rush plateau and warms it up.
func newBackend(profile *sim.CityProfile, seed int64, workers, warm int) (*sim.World, surge.Pricer, *api.Service) {
	w := sim.NewWorld(sim.Config{Profile: profile, Seed: seed, StartTime: rushStart, Workers: workers})
	e := surge.New(w, surge.Config{Params: profile.Surge, Seed: seed})
	svc := api.NewService(w, e)
	if workers != 1 && warm > 0 {
		// The first tick is the one that grows the racy pool: with one P its
		// workers run one after the other.
		procs := runtime.GOMAXPROCS(1)
		svc.Step()
		runtime.GOMAXPROCS(procs)
		warm--
	}
	for i := 0; i < warm; i++ {
		svc.Step()
	}
	return w, e, svc
}

// httpSrv is one loopback HTTP server the benchmark started.
type httpSrv struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveHTTP(h http.Handler) (*httpSrv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpSrv{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed from close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to end.
func (s *httpSrv) close() {
	_ = s.srv.Close()
	<-s.done
}

// requestID is the id the spans of a routed request share: its client=
// query value, which the gateway forwards verbatim while it drops headers.
// It is empty with tracing off and for requests that carry none (probes,
// logins), which are not traced on the server side.
func (t *tracer) requestID(r *http.Request) string {
	if !t.enabled() {
		return ""
	}
	return r.URL.Query().Get("client")
}

// spanHandler records one span per routed request around a handler the
// benchmark mounts.
type spanHandler struct {
	name string
	next http.Handler
	tr   *tracer
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.requestID(r)
	if id == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	s := h.tr.open(h.name, id, -1)
	h.next.ServeHTTP(w, r)
	h.tr.close(s)
}

// spanRT is the gateway's forward transport with a span around each hop.
type spanRT struct {
	base http.RoundTripper
	tr   *tracer
}

func (t spanRT) RoundTrip(r *http.Request) (*http.Response, error) {
	id := t.tr.requestID(r)
	if id == "" {
		return t.base.RoundTrip(r)
	}
	s := t.tr.open("gate.rt", id, -1)
	resp, err := t.base.RoundTrip(r)
	t.tr.close(s)
	return resp, err
}

// clientRT is one load client's transport. It always notes which shard
// answered (the wrong-city check); with tracing on it also records the hop
// as a child of the Remote call in flight. A client is serial, so plain
// fields carry the call's span and id.
type clientRT struct {
	base   *http.Transport
	tr     *tracer
	parent int32
	id     string
	shard  string
}

func (c *clientRT) RoundTrip(r *http.Request) (*http.Response, error) {
	s := c.tr.open("client.rt", c.id, c.parent)
	resp, err := c.base.RoundTrip(r)
	c.tr.close(s)
	if resp != nil {
		c.shard = resp.Header.Get("X-Ubergate-Shard")
	}
	return resp, err
}

type shard struct {
	idx  int // position in serveRig.shards
	name string
	city int
	svc  *api.Service
	w    *sim.World
	srv  *httpSrv
}

type serveRig struct {
	p       params
	tr      *tracer
	cities  []city
	shards  []*shard
	byName  map[string]*shard
	reg     *obs.Registry
	gw      *gate.Gateway
	gwSrv   *httpSrv
	forward *http.Transport
	clients []*serveClient
	passes  int
}

func setupServe(p params, tr *tracer) (rig, error) {
	g := &serveRig{
		p: p, tr: tr,
		cities: []city{newCity(sim.Manhattan().Scale(serveFleetScale)), newCity(sim.SanFrancisco().Scale(serveFleetScale))},
		byName: make(map[string]*shard),
		reg:    obs.NewRegistry(),
	}
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()
	cfg := gate.Config{
		// One synchronous probe round in Start, then the prober is parked:
		// no timer drives the system during the timed phase.
		HealthInterval: time.Hour,
		HealthTimeout:  5 * time.Second,
		Registry:       g.reg,
	}
	for i, spec := range []struct {
		name string
		city int
	}{{"mh-0", 0}, {"mh-1", 0}, {"sf-0", 1}} {
		c := g.cities[spec.city]
		w, _, svc := newBackend(c.profile, worldSeed+int64(i), simWorkers, p.warm)
		var h http.Handler = api.NewServer(svc)
		if p.traced {
			h = spanHandler{"shard.handler", h, tr}
		}
		srv, err := serveHTTP(h)
		if err != nil {
			return nil, err
		}
		sh := &shard{idx: i, name: spec.name, city: spec.city, svc: svc, w: w, srv: srv}
		g.shards = append(g.shards, sh)
		g.byName[sh.name] = sh
		cfg.Shards = append(cfg.Shards, gate.ShardSpec{Name: sh.name, Region: c.profile.Name, BaseURL: srv.url})
	}
	for _, c := range g.cities {
		cfg.Regions = append(cfg.Regions, gate.RegionSpec{Name: c.profile.Name, Origin: c.profile.Origin, Rect: c.profile.Region})
	}
	g.forward = &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64}
	cfg.HTTPClient = &http.Client{Timeout: 6 * time.Second, Transport: g.forward}
	if p.traced {
		cfg.HTTPClient.Transport = spanRT{g.forward, tr}
	}
	gw, err := gate.NewGateway(cfg)
	if err != nil {
		return nil, err
	}
	g.gw = gw
	gw.Start()
	var h http.Handler = gw.Handler()
	if p.traced {
		h = spanHandler{"gate.handler", h, tr}
	}
	if g.gwSrv, err = serveHTTP(h); err != nil {
		return nil, err
	}

	accounts := accountNames(serveAccounts)
	errs := make([]error, p.procs)
	var wg sync.WaitGroup
	for i := 0; i < p.procs; i++ {
		rt := &clientRT{base: &http.Transport{MaxIdleConnsPerHost: 1}, tr: tr, parent: -1}
		c := &serveClient{
			idx: i, g: g, rt: rt,
			// Every failure must be visible: no retry, no breaker, no budget.
			remote: api.NewRemote(g.gwSrv.url, &http.Client{Timeout: 10 * time.Second, Transport: rt},
				api.WithoutRetry(), api.WithoutBreaker(), api.WithoutRetryBudget()),
			accounts: accounts[i*len(accounts)/p.procs : (i+1)*len(accounts)/p.procs],
			lastTime: make([]int64, len(g.shards)),
		}
		g.clients = append(g.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range c.accounts {
				if err := c.remote.Register(id); err != nil {
					errs[c.idx] = fmt.Errorf("register %s through the gateway: %w", id, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ok = true
	return g, nil
}

func (g *serveRig) digest() uint64 {
	ws := make([]*sim.World, len(g.shards))
	for i, sh := range g.shards {
		ws[i] = sh.w
	}
	return worldDigest(ws...)
}

func (g *serveRig) close() {
	for _, c := range g.clients {
		c.rt.base.CloseIdleConnections()
	}
	if g.gwSrv != nil {
		g.gwSrv.close()
	}
	if g.gw != nil {
		g.gw.Close()
	}
	if g.forward != nil {
		g.forward.CloseIdleConnections()
	}
	for _, sh := range g.shards {
		sh.srv.close()
	}
}

// serveClient is one closed-loop load client: one goroutine, one
// connection, its next request sent only after the previous one returned.
type serveClient struct {
	idx      int
	g        *serveRig
	rt       *clientRT
	remote   *api.Remote
	accounts []string
	lastTime []int64 // per shard: a client's ping Time never goes back

	op, alt, steps   latencies
	attempted        int
	fails            []string
	wrongCity        int
	replayBytes, rep int
}

func (c *serveClient) failf(format string, a ...any) {
	c.fails = append(c.fails, fmt.Sprintf("client %d: ", c.idx)+fmt.Sprintf(format, a...))
}

// loop issues n generated requests and verifies every answer.
func (c *serveClient) loop(gen *requestGen, n int) {
	g, tr, ctx := c.g, c.g.tr, context.Background()
	for i := 0; i < n; i++ {
		rq := gen.next()
		c.attempted++
		c.rt.id, c.rt.shard = rq.id, ""
		c.rt.parent = tr.open("remote."+endpointNames[rq.ep], rq.id, -1)
		offered := 0
		var pingTime int64
		var err error
		t0 := time.Now()
		switch rq.ep {
		case epPing:
			r, e := c.remote.PingClientCtx(ctx, rq.id, rq.loc)
			if err = e; e == nil {
				offered, pingTime = len(r.Types), r.Time
			}
		case epPrice:
			r, e := c.remote.EstimatePriceCtx(ctx, rq.id, rq.loc)
			offered, err = len(r), e
		case epTime:
			r, e := c.remote.EstimateTimeCtx(ctx, rq.id, rq.loc)
			offered, err = len(r), e
		case epLogin:
			err = c.remote.RegisterCtx(ctx, rq.id)
		}
		d := time.Since(t0)
		tr.close(c.rt.parent)
		c.rt.parent = -1

		switch {
		case err != nil:
			c.failf("%s %s: %v", endpointNames[rq.ep], rq.id, err)
		case rq.ep == epLogin:
			c.alt = append(c.alt, d)
		default:
			sh := g.byName[c.rt.shard]
			if sh == nil || sh.city != rq.city {
				c.wrongCity++
				c.failf("%s for %s answered by shard %q", endpointNames[rq.ep], g.cities[rq.city].profile.Name, c.rt.shard)
				break
			}
			if offered != g.cities[rq.city].offered {
				c.failf("%s carries %d products, want %d", endpointNames[rq.ep], offered, g.cities[rq.city].offered)
			}
			if rq.ep != epPing {
				break
			}
			c.op = append(c.op, d)
			if pingTime < c.lastTime[sh.idx] {
				c.failf("ping time went back on %s: %d after %d", sh.name, pingTime, c.lastTime[sh.idx])
			}
			c.lastTime[sh.idx] = pingTime
			if tr.enabled() && len(c.op)%replayEvery == 0 {
				c.replay(sh, rq)
			}
		}

		if c.idx == 0 && (i+1)%serveStepEvery == 0 {
			// Epochs publish under concurrent reads from the other clients.
			s := tr.open("api.step", "", -1)
			t0 := time.Now()
			for _, sh := range g.shards {
				sh.svc.Step()
			}
			c.steps = append(c.steps, time.Since(t0))
			tr.close(s)
		}
	}
}

// replay repeats a ping in-process on the shard that served it, right
// after the HTTP call: the service's and the encoder's share of the
// shard's handler time.
func (c *serveClient) replay(sh *shard, rq request) {
	tr := c.g.tr
	s := tr.open("api.service", rq.id, -1)
	resp, err := sh.svc.PingClient(rq.id, rq.loc)
	tr.close(s)
	if err != nil {
		c.failf("replay of ping %s on %s: %v", rq.id, sh.name, err)
		return
	}
	s = tr.open("api.encode", rq.id, -1)
	b, err := json.Marshal(resp)
	tr.close(s)
	if err != nil {
		c.failf("encode of replayed ping: %v", err)
		return
	}
	c.replayBytes += len(b)
	c.rep++
}

// run spreads ops requests over the clients and merges what they saw.
func (g *serveRig) run(ops int, p *pass) {
	g.passes++
	per := ops / len(g.clients)
	p.units = per * len(g.clients)
	for _, c := range g.clients {
		c.op, c.alt, c.steps = make(latencies, 0, per), nil, nil
		c.attempted, c.fails, c.wrongCity, c.replayBytes, c.rep = 0, nil, 0, 0, 0
	}
	p.measure(func() {
		var wg sync.WaitGroup
		for _, c := range g.clients {
			gen := &requestGen{
				r: newRNG(g.p.seed, uint64(g.passes)<<32|uint64(c.idx)), cities: g.cities,
				accounts: c.accounts, fresh: fmt.Sprintf("fresh-%d-%d", g.passes, c.idx),
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.loop(gen, per)
			}()
		}
		wg.Wait()
	})
	for _, c := range g.clients {
		p.op = append(p.op, c.op...)
		p.alt = append(p.alt, c.alt...)
		p.attempted += c.attempted
		for _, f := range c.fails {
			p.fail("%s", f)
		}
	}
	if n := g.reg.Counter("gate_reroutes_total").Value() + g.sheds(); n != 0 {
		p.fail("gateway rerouted or shed %d requests", n)
	}
}

func (g *serveRig) sheds() int64 {
	var n int64
	for _, c := range g.cities {
		n += g.reg.Counter("gate_shed_total", obs.L("region", c.profile.Name)).Value()
	}
	return n
}

func (g *serveRig) timed(ops int, p *pass) { g.run(ops, p) }

func (g *serveRig) traced(ops int, p *pass, tr *tracer, layers map[string]float64) {
	g.run(ops, p)

	tr.link("client.rt", "gate.handler", "gate.rt", "shard.handler")
	st := analyze(tr.snapshot())
	const root = "remote.ping"
	service, encode := st.p50("api.service", "", spanWhole), st.p50("api.encode", "", spanWhole)
	parts := map[string]float64{
		"api.remote_self_ms": st.p50(root, root, spanSelf),
		"net.client_hop_ms":  st.p50("client.rt", root, spanSelf),
		"gate.self_ms":       st.p50("gate.handler", root, spanSelf),
		"net.shard_hop_ms":   st.p50("gate.rt", root, spanSelf),
		// The shard handler's time as the gateway's forward hop saw it,
		// less what the in-process replay attributes to service and encoder.
		"api.server_self_ms": st.p50("gate.rt", root, spanCovered) - service - encode,
		"api.service_ms":     service,
		"api.encode_ms":      encode,
	}
	rest := ms(p.op.p50())
	for k, v := range parts {
		layers[k] = v
		rest -= v
	}
	layers["trace.unexplained_ms"] = rest

	var steps latencies
	wrong, bytes, reps := 0, 0, 0
	for _, c := range g.clients {
		steps = append(steps, c.steps...)
		wrong += c.wrongCity
		bytes += c.replayBytes
		reps += c.rep
	}
	layers["api.step_ms"] = ms(steps.p50())
	layers["api.login_ms"] = ms(p.alt.p50())
	layers["api.response_bytes"] = float64(bytes) / float64(max(reps, 1))
	layers["check.wrong_city"] = float64(wrong)
	layers["gate.reroutes"] = float64(g.reg.Counter("gate_reroutes_total").Value())
	layers["gate.sheds"] = float64(g.sheds())

	// The router alone: direct Pick calls at seeded locations.
	r := newRNG(g.p.seed, 0x9a7e)
	locs := make([]geo.LatLng, pickCalls)
	for i := range locs {
		locs[i] = g.cities[i%len(g.cities)].loc(r)
	}
	t0 := time.Now()
	for i, loc := range locs {
		want := g.cities[i%len(g.cities)].profile.Name
		if route, err := g.gw.Router().Pick(loc); err != nil || route.Region != want {
			p.fail("Router.Pick(%v): region %q, want %s: %v", loc, route.Region, want, err)
		}
	}
	layers["gate.pick_us"] = us(time.Since(t0)) / pickCalls
}
