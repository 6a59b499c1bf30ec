package gate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/sim"
)

// backendServer runs a warm city backend behind an httptest server, the
// way a real uberd shard looks to the gateway (API + /healthz + /readyz).
func backendServer(t *testing.T, profile *sim.CityProfile, seed int64) *httptest.Server {
	t.Helper()
	svc := api.Scenario{City: profile.Name, Seed: seed}.Build()
	svc.RunUntil(600)
	ts := httptest.NewServer(api.NewServer(svc))
	t.Cleanup(ts.Close)
	return ts
}

// startGateway assembles and starts a gateway over the given shards with
// test-speed health checking.
func startGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 25 * time.Millisecond
	}
	if cfg.HealthTimeout == 0 {
		// Probes against a live httptest backend can exceed the short test
		// intervals under -race; a dead shard still fails instantly
		// (connection refused), so this doesn't slow detection.
		cfg.HealthTimeout = time.Second
	}
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	return g
}

// registerVia posts a client registration through the gateway.
func registerVia(t *testing.T, gwURL, clientID string) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"client_id": clientID})
	resp, err := http.Post(gwURL+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("login via gateway: status %d", resp.StatusCode)
	}
}

func getShardHeader(t *testing.T, gwURL, clientID string, loc geo.LatLng) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/estimates/price?client=%s&lat=%f&lng=%f",
		gwURL, clientID, loc.Lat, loc.Lng))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Ubergate-Shard")
}

func TestGatewayRoutesByGPSAcrossCities(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	tsMH := backendServer(t, mh, 1)
	tsSF := backendServer(t, sf, 2)
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh), regionSpec(sf)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsMH.URL},
			{Name: "sf-0", Region: sf.Name, BaseURL: tsSF.URL},
		},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	registerVia(t, gw.URL, "c1")

	// Same client, two cities: each query lands on the shard owning that
	// city, and the response says which.
	if code, shard := getShardHeader(t, gw.URL, "c1", mh.Origin); code != 200 || shard != "manhattan-0" {
		t.Fatalf("manhattan query: code %d via %q", code, shard)
	}
	if code, shard := getShardHeader(t, gw.URL, "c1", sf.Origin); code != 200 || shard != "sf-0" {
		t.Fatalf("sf query: code %d via %q", code, shard)
	}

	// The full client library works through the gateway end to end.
	remote := api.NewRemote(gw.URL, nil)
	ping, err := remote.PingClient("c1", mh.Origin)
	if err != nil {
		t.Fatalf("ping via gateway: %v", err)
	}
	if ping.Time != 600 {
		t.Errorf("ping time = %d, want 600", ping.Time)
	}
	if now := remote.Now(); now != 600 {
		t.Errorf("gateway /health time = %d, want 600", now)
	}

	// Outside both cities: the 404 is indistinguishable from a shard's own
	// out-of-service answer.
	if code, _ := getShardHeader(t, gw.URL, "c1", geo.LatLng{}); code != http.StatusNotFound {
		t.Errorf("out-of-region code = %d, want 404", code)
	}
}

func TestGatewayPlacementSurvivesRestart(t *testing.T) {
	mh := sim.Manhattan()
	tsA := backendServer(t, mh, 1)
	tsB := backendServer(t, mh, 1)
	cfg := func() Config {
		return Config{
			Regions: []RegionSpec{regionSpec(mh)},
			Shards: []ShardSpec{
				{Name: "manhattan-0", Region: mh.Name, BaseURL: tsA.URL},
				{Name: "manhattan-1", Region: mh.Name, BaseURL: tsB.URL},
			},
		}
	}
	locs := grid(mh, 6)

	run := func() []string {
		g := startGateway(t, cfg())
		gw := httptest.NewServer(g.Handler())
		defer gw.Close()
		registerVia(t, gw.URL, "c1")
		placement := make([]string, len(locs))
		for i, loc := range locs {
			code, shard := getShardHeader(t, gw.URL, "c1", loc)
			if code != 200 {
				t.Fatalf("query %d: code %d", i, code)
			}
			placement[i] = shard
		}
		return placement
	}
	first := run()
	second := run() // a brand-new gateway process, same shard fleet
	for i := range locs {
		if first[i] != second[i] {
			t.Fatalf("restart moved cell %d: %s -> %s", i, first[i], second[i])
		}
	}
}

// TestGatewayKillShardMidCampaign is the headline robustness scenario:
// three shards serve two cities, a multi-city loadgen fleet runs, and one
// city's only shard is killed mid-run. The gateway must detect the death
// within a couple of health-check intervals, shed that region with
// 503 + Retry-After, and keep the other city's error rate at exactly zero.
func TestGatewayKillShardMidCampaign(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	tsMH0 := backendServer(t, mh, 1)
	tsMH1 := backendServer(t, mh, 2)
	tsSF := backendServer(t, sf, 3)

	const interval = 50 * time.Millisecond
	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh), regionSpec(sf)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsMH0.URL},
			{Name: "manhattan-1", Region: mh.Name, BaseURL: tsMH1.URL},
			{Name: "sf-0", Region: sf.Name, BaseURL: tsSF.URL},
		},
		HealthInterval: interval,
		Registry:       reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	reportCh := make(chan *loadgen.Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := loadgen.Run(loadgen.Config{
			BaseURL:  gw.URL,
			Clients:  6,
			Duration: 1500 * time.Millisecond,
			Cities:   map[string]geo.LatLng{mh.Name: mh.Origin, sf.Name: sf.Origin},
		})
		if err != nil {
			errCh <- err
			return
		}
		reportCh <- rep
	}()

	// Kill SF's only shard mid-campaign, abruptly (in-flight connections
	// die too, like kill -9).
	time.Sleep(500 * time.Millisecond)
	killed := time.Now()
	tsSF.CloseClientConnections()
	tsSF.Close()

	var sfShard *Shard
	for _, s := range g.Shards() {
		if s.Name == "sf-0" {
			sfShard = s
		}
	}
	for sfShard.Alive() {
		if time.Since(killed) > 2*time.Second {
			t.Fatal("gateway never marked sf-0 down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// failThreshold probes plus one in-flight one, with scheduler slack:
	// the acceptance bound is "within two health-check intervals".
	if d := time.Since(killed); d > 3*interval+500*time.Millisecond {
		t.Errorf("detection took %v, want ~%v", d, 2*interval)
	}

	// A dead region is shed, not misrouted: direct probe sees the 503
	// contract.
	resp, err := http.Get(fmt.Sprintf("%s/estimates/price?client=probe&lat=%f&lng=%f",
		gw.URL, sf.Origin.Lat, sf.Origin.Lng))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dead-region status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("dead-region 503 missing Retry-After")
	}

	var rep *loadgen.Report
	select {
	case rep = <-reportCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("loadgen never finished")
	}

	sfStats, mhStats := rep.Cities[sf.Name], rep.Cities[mh.Name]
	if mhStats.Requests == 0 || sfStats.Requests == 0 {
		t.Fatalf("degenerate run: %+v", rep.Cities)
	}
	// The healthy city never sees the other city's outage.
	if mhStats.Errors != 0 {
		t.Errorf("manhattan errors = %d, want 0 (sf death must not leak)", mhStats.Errors)
	}
	// The dead city's clients do see errors — shedding is loud, not a
	// silent wrong-city answer.
	if sfStats.Errors == 0 {
		t.Error("sf clients saw no errors despite their region dying")
	}
	if v := reg.Counter("gate_shed_total", obs.L("region", sf.Name)).Value(); v == 0 {
		t.Error("gate_shed_total{region=sf} = 0, want > 0")
	}
	if v := reg.Gauge("gate_shard_up", obs.L("shard", "sf-0")).Value(); v != 0 {
		t.Errorf("gate_shard_up{sf-0} = %v, want 0", v)
	}
}

// TestGatewayReroutesWithinRegion kills one of two replicas of the same
// city: traffic reroutes to the survivor and clients see zero errors.
func TestGatewayReroutesWithinRegion(t *testing.T) {
	mh := sim.Manhattan()
	tsA := backendServer(t, mh, 1)
	tsB := backendServer(t, mh, 1) // same seed: identical worlds, true replicas
	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsA.URL},
			{Name: "manhattan-1", Region: mh.Name, BaseURL: tsB.URL},
		},
		HealthInterval: 25 * time.Millisecond,
		Registry:       reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// All loadgen clients query from the city center, i.e. one routing
	// cell: find its owner so the kill hits the serving replica.
	registerVia(t, gw.URL, "scout")
	_, owner := getShardHeader(t, gw.URL, "scout", mh.Origin)
	victim := tsA
	if owner == "manhattan-1" {
		victim = tsB
	}

	reportCh := make(chan *loadgen.Report, 1)
	errCh := make(chan error, 1)
	go func() {
		rep, err := loadgen.Run(loadgen.Config{
			BaseURL:  gw.URL,
			Clients:  4,
			Duration: 1200 * time.Millisecond,
			Loc:      mh.Origin,
		})
		if err != nil {
			errCh <- err
			return
		}
		reportCh <- rep
	}()

	time.Sleep(400 * time.Millisecond)
	victim.CloseClientConnections()
	victim.Close()

	var rep *loadgen.Report
	select {
	case rep = <-reportCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("loadgen never finished")
	}
	if rep.Errors != 0 {
		t.Errorf("client-visible errors = %d, want 0 (survivor should absorb the kill)", rep.Errors)
	}
	if v := reg.Counter("gate_reroutes_total").Value(); v == 0 {
		t.Error("gate_reroutes_total = 0, want > 0")
	}
}

// swapHandler lets a test replace a shard's entire backend behind a fixed
// URL — the moral equivalent of the process being replaced by a fresh one
// that lost its account table.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

func TestGatewayReloginAfterShardLosesAccounts(t *testing.T) {
	mh := sim.Manhattan()
	svc1 := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svc1.RunUntil(600)
	sw := &swapHandler{}
	sw.h.Store(http.Handler(api.NewServer(svc1)))
	tsB := httptest.NewServer(sw)
	defer tsB.Close()
	tsA := backendServer(t, mh, 1)

	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsA.URL},
			{Name: "manhattan-1", Region: mh.Name, BaseURL: tsB.URL},
		},
		Registry: reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	registerVia(t, gw.URL, "c1") // broadcast: both shards know c1

	// The shard is replaced by a fresh process with an empty account table.
	svc2 := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svc2.RunUntil(600)
	sw.h.Store(http.Handler(api.NewServer(svc2)))

	// Find a location manhattan-1 owns and query it: the fresh backend
	// answers 401, the gateway replays the remembered login and retries.
	for _, loc := range grid(mh, 8) {
		route, err := g.Router().Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		if route.Shard.Name != "manhattan-1" {
			continue
		}
		code, shard := getShardHeader(t, gw.URL, "c1", loc)
		if code != 200 || shard != "manhattan-1" {
			t.Fatalf("query after account loss: code %d via %q", code, shard)
		}
		if v := reg.Counter("gate_relogins_total").Value(); v == 0 {
			t.Error("gate_relogins_total = 0, want > 0")
		}
		return
	}
	t.Fatal("test is vacuous: manhattan-1 owns no grid cell")
}

// TestGatewayHealsRecoveredShard: a shard that was not ready while an
// account registered learns it on the first query routed to it, through
// one relogin, and keeps it.
func TestGatewayHealsRecoveredShard(t *testing.T) {
	mh := sim.Manhattan()
	tsA := backendServer(t, mh, 1)

	// Shard B reports not-ready until the test flips it — a shard that is
	// warming up while accounts are being created elsewhere. Its /readyz
	// is mounted beside the API server, the way uberd mounts it.
	var up atomic.Bool
	rd := api.NewReadiness()
	rd.AddCheck("warm", up.Load)
	svcB := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svcB.RunUntil(600)
	muxB := http.NewServeMux()
	muxB.Handle("/", api.NewServer(svcB))
	muxB.Handle("GET /readyz", rd.Handler())
	tsB := httptest.NewServer(muxB)
	defer tsB.Close()

	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsA.URL},
			{Name: "manhattan-1", Region: mh.Name, BaseURL: tsB.URL},
		},
		HealthInterval: 20 * time.Millisecond,
		Registry:       reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Only manhattan-0 is ready to take the rider and the driver.
	registerVia(t, gw.URL, "c1")
	body, _ := json.Marshal(map[string]any{"driver_id": "d1", "agree_no_scraping": true})
	resp, err := http.Post(gw.URL+"/partner/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partner login via gateway: status %d", resp.StatusCode)
	}

	up.Store(true) // shard B becomes ready, still without c1
	b := g.Shards()[1]
	for deadline := time.Now().Add(3 * time.Second); !b.Eligible(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("manhattan-1 never became eligible")
		}
	}

	relogins := reg.Counter("gate_relogins_total")
	healed := false
	for _, loc := range grid(mh, 8) {
		route, err := g.Router().Pick(loc)
		if err != nil {
			t.Fatal(err)
		}
		if route.Shard != b {
			continue
		}
		// The first query relogins c1 into B; the second finds it there.
		for i := 0; i < 2; i++ {
			code, shard := getShardHeader(t, gw.URL, "c1", loc)
			if code != 200 || shard != "manhattan-1" {
				t.Fatalf("query %d after recovery: code %d via %q", i, code, shard)
			}
			if v := relogins.Value(); v != 1 {
				t.Fatalf("after query %d: gate_relogins_total = %d, want 1", i, v)
			}
		}
		healed = true
		break
	}
	if !healed {
		t.Fatal("test is vacuous: manhattan-1 owns no grid cell")
	}

	// The partner map routes at the region's origin. B lacks d1, answers
	// 401, and the gateway relogins the driver the same way.
	if route, err := g.Router().Pick(mh.Origin); err != nil || route.Shard != b {
		t.Fatalf("test is vacuous: origin routes to %v (err %v), want manhattan-1", route.Shard, err)
	}
	for i := 0; i < 2; i++ {
		resp, err := http.Get(gw.URL + "/partner/surgeMap?driver=d1&region=" + mh.Name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if shard := resp.Header.Get("X-Ubergate-Shard"); resp.StatusCode != 200 || shard != "manhattan-1" {
			t.Fatalf("partner map %d after recovery: code %d via %q", i, resp.StatusCode, shard)
		}
		if v := relogins.Value(); v != 2 {
			t.Fatalf("after partner map %d: gate_relogins_total = %d, want 2", i, v)
		}
	}
}

func TestGatewayMetricsFanIn(t *testing.T) {
	mh := sim.Manhattan()
	// The live shard serves /metrics beside its API, the way uberd mounts it.
	svc := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svc.RunUntil(600)
	shardReg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/", api.NewServer(svc, api.WithMetrics(shardReg)))
	mux.Handle("GET /metrics", shardReg.Handler())
	tsA := httptest.NewServer(mux)
	defer tsA.Close()
	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsA.URL},
			// A shard that was configured but never came up: the fan-in must
			// label its absence, not fail or block.
			{Name: "manhattan-1", Region: mh.Name, BaseURL: "http://127.0.0.1:1"},
		},
		Registry: reg,
	})
	// Generate one request so the live shard has series to relabel.
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	registerVia(t, gw.URL, "c1")
	getShardHeader(t, gw.URL, "c1", mh.Origin)

	rec := httptest.NewRecorder()
	g.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	if !strings.Contains(body, `http_requests_total{shard="manhattan-0",`) {
		t.Error("fan-in missing relabeled series from the live shard")
	}
	if !strings.Contains(body, "# ubergate: shard manhattan-1 metrics unavailable") {
		t.Error("fan-in missing the dead-shard absence comment")
	}
	if !strings.Contains(body, "gate_shard_up") {
		t.Error("fan-in missing the gateway's own series")
	}
	// No shard comment lines survive relabeling (duplicate TYPE metadata
	// would break strict parsers).
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE") && strings.Contains(line, "uberd_") {
			t.Errorf("shard TYPE comment leaked into fan-in: %q", line)
		}
	}
	// Each scrape that misses the dead shard counts it, in the same
	// exposition; the live shard never counts.
	if !strings.Contains(body, `gate_scrape_errors_total{shard="manhattan-1"} 1`) {
		t.Error("first fan-in does not count the dead shard's scrape error")
	}
	g.MetricsHandler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/metrics", nil))
	if v := reg.Counter("gate_scrape_errors_total", obs.L("shard", "manhattan-1")).Value(); v != 2 {
		t.Errorf("gate_scrape_errors_total{manhattan-1} = %d after two scrapes, want 2", v)
	}
	if v := reg.Counter("gate_scrape_errors_total", obs.L("shard", "manhattan-0")).Value(); v != 0 {
		t.Errorf("gate_scrape_errors_total{manhattan-0} = %d, want 0", v)
	}
}

func TestInjectLabel(t *testing.T) {
	cases := [][3]string{
		{`requests_total{endpoint="/ping"} 4`, `shard="a"`, `requests_total{shard="a",endpoint="/ping"} 4`},
		{`up 1`, `shard="a"`, `up{shard="a"} 1`},
		{`weird`, `shard="a"`, `weird`},
	}
	for _, c := range cases {
		if got := injectLabel(c[0], c[1]); got != c[2] {
			t.Errorf("injectLabel(%q) = %q, want %q", c[0], got, c[2])
		}
	}
}

func TestGatewaySurgeMapRoutesByRegionParam(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	// Count what the Manhattan shard is asked beyond health probes and
	// logins: once SF is down, none of SF's traffic may reach it.
	svcMH := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svcMH.RunUntil(600)
	innerMH := api.NewServer(svcMH)
	var mhAsked atomic.Int64
	tsMH := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/readyz", "/login", "/partner/login":
		default:
			mhAsked.Add(1)
		}
		innerMH.ServeHTTP(w, r)
	}))
	defer tsMH.Close()
	tsSF := backendServer(t, sf, 2)
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh), regionSpec(sf)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: tsMH.URL},
			{Name: "sf-0", Region: sf.Name, BaseURL: tsSF.URL},
		},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// Register a driver through the gateway (broadcast, like clients).
	body, _ := json.Marshal(map[string]any{"driver_id": "d1", "agree_no_scraping": true})
	resp, err := http.Post(gw.URL+"/partner/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("partner login: status %d", resp.StatusCode)
	}

	resp, err = http.Get(gw.URL + "/partner/surgeMap?driver=d1&region=" + sf.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := httputil.DumpResponse(resp, true)
		t.Fatalf("surgeMap via region param: status %d\n%s", resp.StatusCode, b)
	}
	if shard := resp.Header.Get("X-Ubergate-Shard"); shard != "sf-0" {
		t.Errorf("surgeMap served by %q, want sf-0", shard)
	}

	// No region, no GPS, two regions configured: ambiguous, a 400.
	resp, err = http.Get(gw.URL + "/partner/surgeMap?driver=d1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous surgeMap: status %d, want 400", resp.StatusCode)
	}

	// SF's only shard goes down. Every SF-routed request, the surge map
	// by region parameter included, is shed with 503 + Retry-After; none
	// is answered from Manhattan's world.
	tsSF.CloseClientConnections()
	tsSF.Close()
	sfShard := g.Shards()[1]
	for deadline := time.Now().Add(3 * time.Second); sfShard.Alive(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gateway never marked sf-0 down")
		}
	}
	mhAsked.Store(0)
	at := fmt.Sprintf("lat=%f&lng=%f", sf.Origin.Lat, sf.Origin.Lng)
	for _, path := range []string{
		"/partner/surgeMap?driver=d1&region=" + sf.Name,
		"/partner/surgeMap?driver=d1&" + at,
		"/pingClient?client=c1&" + at,
		"/estimates/price?client=c1&" + at,
		"/estimates/time?client=c1&" + at,
	} {
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s with sf down: status %d, Retry-After %q, want 503 with Retry-After (served by %q)",
				path, resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("X-Ubergate-Shard"))
		}
	}
	if n := mhAsked.Load(); n != 0 {
		t.Errorf("manhattan-0 was asked %d SF requests while sf-0 was down", n)
	}
}

// TestGatewayCountsProxyErrors: a forward that hits a closed connection
// counts in gate_proxy_errors_total and reroutes once to the next shard
// of the same region, which answers.
func TestGatewayCountsProxyErrors(t *testing.T) {
	mh := sim.Manhattan()
	stub := func(hangUp bool) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/healthz":
				io.WriteString(w, `{"time":5}`)
			case r.URL.Path == "/readyz" || !hangUp:
				io.WriteString(w, "ok")
			default: // accept the forward, then close the connection unanswered
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			}
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards: []ShardSpec{
			{Name: "manhattan-0", Region: mh.Name, BaseURL: stub(true).URL},
			{Name: "manhattan-1", Region: mh.Name, BaseURL: stub(false).URL},
		},
		Registry: reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	// A cell whose primary is the shard that hangs up.
	for _, loc := range grid(mh, 8) {
		if route, err := g.Router().Pick(loc); err != nil || route.Shard.Name != "manhattan-0" {
			continue
		}
		code, shard := getShardHeader(t, gw.URL, "c1", loc)
		if code != http.StatusOK || shard != "manhattan-1" {
			t.Fatalf("forward after a closed connection: code %d via %q, want 200 via manhattan-1", code, shard)
		}
		if v := reg.Counter("gate_proxy_errors_total").Value(); v != 1 {
			t.Errorf("gate_proxy_errors_total = %d, want 1", v)
		}
		if v := reg.Counter("gate_reroutes_total").Value(); v != 1 {
			t.Errorf("gate_reroutes_total = %d, want 1", v)
		}
		return
	}
	t.Fatal("test is vacuous: manhattan-0 owns no grid cell")
}

// TestGatewayEdgeMatchesShardEdge: what the gateway refuses on its own —
// an unparseable location (400) and one outside every region (404) — is
// answered byte for byte as the shard would have, so a client cannot tell
// a gateway edge from a shard edge.
func TestGatewayEdgeMatchesShardEdge(t *testing.T) {
	mh := sim.Manhattan()
	shard := backendServer(t, mh, 1)
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards:  []ShardSpec{{Name: "manhattan-0", Region: mh.Name, BaseURL: shard.URL}},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	registerVia(t, gw.URL, "c1")

	fetch := func(base, query string) (int, string, string) {
		resp, err := http.Get(base + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if via := resp.Header.Get("X-Ubergate-Shard"); via != "" {
			t.Fatalf("%s was forwarded to %s; the case must be answered by the gateway itself", query, via)
		}
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"/pingClient?client=c1&lat=NaN&lng=-73.98", http.StatusBadRequest},
		{"/estimates/price?client=c1&lat=40.75&lng=east", http.StatusBadRequest},
		{"/estimates/time?client=c1&lat=0&lng=0", http.StatusNotFound},
	} {
		gCode, gType, gBody := fetch(gw.URL, tc.query)
		sCode, sType, sBody := fetch(shard.URL, tc.query)
		if gCode != tc.code || sCode != tc.code {
			t.Errorf("%s: gateway %d, shard %d, want %d", tc.query, gCode, sCode, tc.code)
		}
		if gBody != sBody || gType != sType {
			t.Errorf("%s: gateway answered %q (%s), shard %q (%s)", tc.query, gBody, gType, sBody, sType)
		}
	}
}

// A forwarded request carries Content-Type only when the client sent one:
// a GET reaches the shard with no Content-Type line at all (it used to carry
// an empty one), and a login POST keeps the client's.
func TestGatewayForwardsContentTypeOnlyWhenSent(t *testing.T) {
	mh := sim.Manhattan()
	svc := api.Scenario{City: mh.Name, Seed: 1}.Build()
	svc.RunUntil(600)
	inner := api.NewServer(svc)
	var mu sync.Mutex
	seen := map[string][]string{}
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/login" || r.URL.Path == "/pingClient" {
			mu.Lock()
			seen[r.URL.Path] = append([]string(nil), r.Header["Content-Type"]...)
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer shard.Close()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh)},
		Shards:  []ShardSpec{{Name: "manhattan-0", Region: mh.Name, BaseURL: shard.URL}},
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	registerVia(t, gw.URL, "c1")
	resp, err := http.Get(fmt.Sprintf("%s/pingClient?client=c1&lat=%f&lng=%f", gw.URL, mh.Origin.Lat, mh.Origin.Lng))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ping via gateway: status %d", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if ct, ok := seen["/pingClient"]; !ok || ct != nil {
		t.Errorf("forwarded GET: shard saw Content-Type %q (forwarded %v), want no such header", ct, ok)
	}
	if ct := seen["/login"]; len(ct) != 1 || ct[0] != "application/json" {
		t.Errorf("forwarded login: shard saw Content-Type %q, want [application/json]", ct)
	}
}

// TestGatewayRequestCounters pins gate_requests_total against stub shards:
// one series per shard and status class actually relayed, none for a class
// never seen, and counts that keep adding up once each class's counter is
// cached on its shard.
func TestGatewayRequestCounters(t *testing.T) {
	mh, sf := sim.Manhattan(), sim.SanFrancisco()
	stub := func() *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/healthz":
				io.WriteString(w, `{"time":5}`)
			case "/readyz":
				io.WriteString(w, "ok")
			default:
				code, _ := strconv.Atoi(r.URL.Query().Get("code"))
				w.WriteHeader(code)
			}
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	reg := obs.NewRegistry()
	g := startGateway(t, Config{
		Regions: []RegionSpec{regionSpec(mh), regionSpec(sf)},
		Shards: []ShardSpec{
			{Name: "mh-0", Region: mh.Name, BaseURL: stub().URL},
			{Name: "sf-0", Region: sf.Name, BaseURL: stub().URL},
		},
		Registry: reg,
	})
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()

	send := func(loc geo.LatLng, code, n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(fmt.Sprintf("%s/pingClient?client=c&code=%d&lat=%f&lng=%f", gw.URL, code, loc.Lat, loc.Lng))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != code {
				t.Fatalf("relayed status %d, want %d", resp.StatusCode, code)
			}
		}
	}
	series := func() string {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(l, "gate_requests_total") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}

	send(mh.Origin, 200, 3)
	send(mh.Origin, 404, 2)
	send(mh.Origin, 429, 1)
	send(sf.Origin, 200, 2)
	send(sf.Origin, 503, 1)
	want := strings.Join([]string{
		`gate_requests_total{class="2xx",shard="mh-0"} 3`,
		`gate_requests_total{class="2xx",shard="sf-0"} 2`,
		`gate_requests_total{class="4xx",shard="mh-0"} 3`,
		`gate_requests_total{class="5xx",shard="sf-0"} 1`,
	}, "\n")
	if got := series(); got != want {
		t.Fatalf("request series:\n%s\nwant:\n%s", got, want)
	}
	send(mh.Origin, 200, 2)
	send(sf.Origin, 404, 1)
	want = strings.Join([]string{
		`gate_requests_total{class="2xx",shard="mh-0"} 5`,
		`gate_requests_total{class="2xx",shard="sf-0"} 2`,
		`gate_requests_total{class="4xx",shard="mh-0"} 3`,
		`gate_requests_total{class="4xx",shard="sf-0"} 1`,
		`gate_requests_total{class="5xx",shard="sf-0"} 1`,
	}, "\n")
	if got := series(); got != want {
		t.Fatalf("request series after more requests:\n%s\nwant:\n%s", got, want)
	}
}
