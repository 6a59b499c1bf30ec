package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
)

// pingViaJSON is the reference read path: the raw body of one /pingClient
// through encoding/json, the Type enum rebuilt from the wire name.
func pingViaJSON(t testing.TB, hc *http.Client, base, clientID string, loc geo.LatLng) *core.PingResponse {
	t.Helper()
	resp, err := hc.Get(fmt.Sprintf("%s/pingClient?client=%s&lat=%.7f&lng=%.7f", base, clientID, loc.Lat, loc.Lng))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /pingClient: status %d, %v", resp.StatusCode, err)
	}
	var out core.PingResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i := range out.Types {
		vt, err := core.ParseVehicleType(out.Types[i].TypeName)
		if err != nil {
			t.Fatal(err)
		}
		out.Types[i].Type = vt
	}
	return &out
}

// probeLocs spreads n locations over the service region, centre first.
func probeLocs(s *Service, n int) []geo.LatLng {
	w := s.World()
	r := w.Profile().Region
	locs := []geo.LatLng{center(s)}
	for i := 1; i < n; i++ {
		f := float64(i) / float64(n)
		p := geo.Point{X: r.Min.X + (r.Max.X-r.Min.X)*f, Y: r.Min.Y + (r.Max.Y-r.Min.Y)*(1-f)}
		if r.Contains(p) {
			locs = append(locs, w.Projection().ToLatLng(p))
		}
	}
	return locs
}

// Golden: what Remote hands back for bodies our own Server wrote is what
// encoding/json makes of the same bytes, and none of them needs the delegate.
func TestRemotePingMatchesEncodingJSON(t *testing.T) {
	for _, tc := range []struct {
		profile *sim.CityProfile
		seed    int64
		jitter  bool
	}{{sim.Manhattan(), 7, false}, {sim.SanFrancisco(), 3, true}} {
		s := Scenario{City: tc.profile.Name, Seed: tc.seed, Jitter: tc.jitter}.Build()
		s.Register("tester")
		s.RunUntil(600)
		ts := httptest.NewServer(NewServer(s))
		reg := obs.NewRegistry()
		remote := NewRemote(ts.URL, ts.Client(), WithRegistry(reg))
		cars := 0
		for _, loc := range probeLocs(s, 12) {
			want := pingViaJSON(t, ts.Client(), ts.URL, "tester", loc)
			got, err := remote.PingClient("tester", loc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s at %v: Remote and encoding/json disagree\n got %+v\nwant %+v", tc.profile.Name, loc, got, want)
			}
			for _, st := range got.Types {
				cars += len(st.Cars)
			}
		}
		if cars == 0 {
			t.Errorf("%s: no ping carried a car", tc.profile.Name)
		}
		if n := reg.Counter("client_decode_fallback_total").Value(); n != 0 {
			t.Errorf("%s: %d bodies of our own server went to the delegate", tc.profile.Name, n)
		}
		ts.Close()
	}
}

// The corners of the wire shape a seeded world does not reach, written by
// the same WriteJSON: null types, null and empty cars, a car without a path.
func TestRemotePingMatchesEncodingJSONCorners(t *testing.T) {
	shapes := []*core.PingResponse{
		{Time: 600},
		{Time: 601, Types: []core.TypeStatus{}},
		{Time: 602, Types: []core.TypeStatus{
			{TypeName: "uberX", Surge: 1.3, EWTSeconds: 0},
			{TypeName: "uberT", Cars: []core.CarView{}, Surge: 1, EWTSeconds: 1800},
			{TypeName: "uberBLACK", Surge: 2.1, EWTSeconds: 95.5, Cars: []core.CarView{
				{ID: "c0000000100000002", Pos: geo.LatLng{Lat: 40.75, Lng: -73.98}},
				{ID: "c0000000300000004", Pos: geo.LatLng{Lat: 0, Lng: 1e-7},
					Path: []geo.LatLng{{Lat: 40.7501, Lng: -73.9801}, {Lat: 40.7502, Lng: -73.9802}}},
			}},
		}},
	}
	var next atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, shapes[int(next.Load())])
	}))
	defer ts.Close()
	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(), WithRegistry(reg))
	for i := range shapes {
		next.Store(int64(i))
		want := pingViaJSON(t, ts.Client(), ts.URL, "c", geo.LatLng{})
		got, err := remote.PingClient("c", geo.LatLng{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shape %d: Remote and encoding/json disagree\n got %+v\nwant %+v", i, got, want)
		}
	}
	if n := reg.Counter("client_decode_fallback_total").Value(); n != 0 {
		t.Errorf("%d of the corner shapes went to the delegate", n)
	}
}

// "Our server never takes the delegate" as a measured fact: the paper's
// campaign (43 clients, a ping each per tick) plus the estimate endpoints
// and /health against our own Server leave the counter at 0; one hand-made
// body with its keys out of order moves it to 1 and still decodes.
func TestDecodeFallbackCounter(t *testing.T) {
	s := Scenario{City: "manhattan", Seed: 11, Jitter: true}.Build()
	s.RunUntil(300)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	reg := obs.NewRegistry()
	remote := NewRemote(ts.URL, ts.Client(), WithRegistry(reg))

	r := s.World().Profile().Region
	var positions []geo.Point
	for i := 0; i < 43; i++ {
		f := (float64(i) + 0.5) / 43
		positions = append(positions, geo.Point{X: r.Min.X + (r.Max.X-r.Min.X)*f, Y: r.Min.Y + (r.Max.Y-r.Min.Y)*f})
	}
	c := client.NewCampaign(remote, s.World().Projection(), positions)
	if err := c.RegisterAll(remote); err != nil {
		t.Fatal(err)
	}
	c.RunSim(s, s.Now()+20*5)
	for _, cl := range c.Clients[:4] {
		if _, err := remote.EstimatePrice(cl.ID, cl.Loc); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.EstimateTime(cl.ID, cl.Loc); err != nil {
			t.Fatal(err)
		}
	}
	if now, err := remote.NowErr(); err != nil || now != s.Now() {
		t.Fatalf("NowErr = %d, %v; want %d", now, err, s.Now())
	}
	if c.Errors != 0 || c.Rounds != 20 {
		t.Fatalf("campaign: %d rounds, %d errors", c.Rounds, c.Errors)
	}
	fallback := reg.Counter("client_decode_fallback_total")
	if n := fallback.Value(); n != 0 {
		t.Fatalf("client_decode_fallback_total = %d after %d pings against our own server, want 0", n, int(c.Rounds)*len(c.Clients))
	}

	reordered := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"types":[{"surge":1.5,"type":"uberX","cars":[]}],"time":42}`)
	}))
	defer reordered.Close()
	other := NewRemote(reordered.URL, reordered.Client(), WithRegistry(reg))
	resp, err := other.PingClient("c", geo.LatLng{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Time != 42 || len(resp.Types) != 1 || resp.Types[0].Type != core.UberX || resp.Types[0].Surge != 1.5 {
		t.Errorf("reordered body decoded to %+v", resp)
	}
	if n := fallback.Value(); n != 1 {
		t.Errorf("client_decode_fallback_total = %d after one reordered body, want 1", n)
	}
}

// Concurrent calls on one Remote share the buffer pool. Every goroutine
// holds each answer across its next call, which by then has reused the
// buffer the answer was decoded from, and only then compares it: an answer
// that pointed into pooled memory would have changed. Run under -race.
func TestRemoteConcurrentCallsDoNotShareMemory(t *testing.T) {
	s := testBackend(t, false)
	ts := httptest.NewServer(NewServer(s))
	defer ts.Close()
	remote := NewRemote(ts.URL, ts.Client())
	locs := probeLocs(s, 8)
	want := make([]*core.PingResponse, len(locs))
	for i, loc := range locs {
		want[i] = pingViaJSON(t, ts.Client(), ts.URL, "tester", loc)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held *core.PingResponse
			heldAt := -1
			for n := 0; n < 40; n++ {
				i := (g + n) % len(locs)
				got, err := remote.PingClient("tester", locs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if n%5 == 0 {
					if _, err := remote.NowErr(); err != nil {
						t.Error(err)
						return
					}
				}
				if held != nil && !reflect.DeepEqual(held, want[heldAt]) {
					t.Errorf("goroutine %d: the answer for location %d changed after a later call", g, heldAt)
					return
				}
				held, heldAt = got, i
			}
		}()
	}
	wg.Wait()
}

// A response encoding/json refuses used to go out as a 200 with an empty
// body, which the client retried as a transport fault. Infinite location
// fuzz makes every reported position NaN or Inf.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	s := testBackend(t, false)
	reg := obs.NewRegistry()
	ts := httptest.NewServer(NewServer(s, WithMetrics(reg)))
	defer ts.Close()
	loc := center(s)
	url := fmt.Sprintf("%s/pingClient?client=tester&lat=%.7f&lng=%.7f", ts.URL, loc.Lat, loc.Lng)

	s.SetLocationFuzz(math.Inf(1))
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("status %d body %q; want 500 with the encoder's error", resp.StatusCode, body)
	}
	remote := NewRemote(ts.URL, ts.Client(), WithoutRetry())
	if _, err := remote.PingClient("tester", loc); err == nil || !strings.Contains(err.Error(), "status 500") {
		t.Errorf("Remote.PingClient = %v; want the 500", err)
	}
	if n := reg.Counter("http_requests_total", obs.L("endpoint", "/pingClient"), obs.L("class", "5xx")).Value(); n != 2 {
		t.Errorf("5xx count = %d, want 2", n)
	}

	// The failed encode left nothing behind in the pooled buffer.
	s.SetLocationFuzz(0)
	if _, err := remote.PingClient("tester", loc); err != nil {
		t.Errorf("ping after the fuzz was reset: %v", err)
	}
}

// Unlike the json.Decoder it replaces, the read path takes the whole body:
// anything but whitespace after the value is a decode error, and like every
// garbled 200 it is retried.
func TestRemoteTrailingGarbageIsRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"time":600,"types":null}`+"\n")
		if calls.Add(1) == 1 {
			io.WriteString(w, `{"time":601}`)
		}
	}))
	defer ts.Close()
	remote := NewRemote(ts.URL, ts.Client(), WithBackoff(fastBackoff))
	resp, err := remote.PingClient("c1", geo.LatLng{})
	if err != nil || resp.Time != 600 {
		t.Fatalf("PingClient = %+v, %v", resp, err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("server saw %d attempts, want 2 (the first body had a second value after the first)", n)
	}
	if _, err := NewRemote(ts.URL, ts.Client(), WithoutRetry()).NowErr(); err != nil {
		t.Errorf("a trailing newline is not garbage: %v", err)
	}
}

// zeros never ends.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

func TestBodyBufRefusesUnboundedBody(t *testing.T) {
	b := getBody()
	err := b.readAll(zeros{})
	if err == nil || b.Len() > maxBody+1 {
		t.Fatalf("readAll of an endless body: err %v after %d bytes, cap is %d", err, b.Len(), maxBody)
	}
	putBody(b) // larger than maxPooledBody: dropped, not pooled
}
