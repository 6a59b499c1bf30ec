package api

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// pingURL is the /pingClient request for client at loc, the coordinates
// written so that they parse back to loc exactly.
func pingURL(client string, loc geo.LatLng) string {
	return "/pingClient?client=" + client +
		"&lat=" + strconv.FormatFloat(loc.Lat, 'g', -1, 64) +
		"&lng=" + strconv.FormatFloat(loc.Lng, 'g', -1, 64)
}

// record serves one GET through h in-process.
func record(h http.Handler, url string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

// The /pingClient body is written from the epoch, and every status and byte
// of it is what WriteJSON made of PingClient's response (query(s.PingClient)
// is that handler): on a euclidean and a road world, mult2015 with jitter,
// location fuzz off, on and infinite (the 500), across epochs, locations
// inside and outside the region, and an unknown client. Every 200 body is
// one core.DecodePing takes on its fast path.
func TestPingBodyMatchesWriteJSON(t *testing.T) {
	for _, roads := range []bool{false, true} {
		for _, fuzz := range []float64{0, 25, math.Inf(1)} {
			t.Run(fmt.Sprintf("roads=%v/fuzz=%v", roads, fuzz), func(t *testing.T) {
				s := Scenario{City: "manhattan", Seed: 13, Road: roads, Engine: "mult2015", Jitter: true, Workers: 1}.Build()
				clients := []string{"ghost"} // never registered: 401
				for i := 0; i < 5; i++ {
					clients = append(clients, fmt.Sprintf("enc-%d", i))
					s.Register(clients[i+1])
				}
				s.SetLocationFuzz(fuzz)
				s.RunUntil(300)
				region := s.World().Profile().Region
				locs := append(probeLocs(s, 10),
					geo.LatLng{},
					s.World().Projection().ToLatLng(geo.Point{X: region.Max.X + 1, Y: region.Min.Y}))
				srv, ref := NewServer(s), query(s.PingClient)
				codes := map[int]int{}
				cars := 0
				for epoch := 0; epoch < 24; epoch++ {
					s.Step()
					for i, loc := range locs {
						url := pingURL(clients[(epoch+i)%len(clients)], loc)
						got, want := record(srv, url), record(ref, url)
						if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
							!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
							t.Fatalf("epoch %d %s:\n got %d %q\nwant %d %q", epoch, url,
								got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
						}
						codes[got.Code]++
						if got.Code != http.StatusOK {
							continue
						}
						var resp core.PingResponse
						if fast, err := core.DecodePing(got.Body.Bytes(), &resp); !fast || err != nil {
							t.Fatalf("epoch %d %s: DecodePing fast=%v err=%v", epoch, url, fast, err)
						}
						for _, ts := range resp.Types {
							cars += len(ts.Cars)
						}
					}
				}
				saw401, saw404 := codes[http.StatusUnauthorized] > 0, codes[http.StatusNotFound] > 0
				if math.IsInf(fuzz, 0) {
					if codes[http.StatusInternalServerError] == 0 || !saw401 || !saw404 {
						t.Fatalf("statuses %v: want 500s, 401s and 404s", codes)
					}
				} else if codes[http.StatusOK] == 0 || cars == 0 || !saw401 || !saw404 {
					t.Fatalf("statuses %v, %d cars: want 200s with cars, 401s and 404s", codes, cars)
				}
			})
		}
	}
}

// An HTTP ping publishes exactly the bus event the in-process PingClient
// publishes for the same epoch, client and location, and moves the jitter
// counter the same way: the event and the counter are the ping walk's, not
// the sink's.
func TestHTTPPingEventParity(t *testing.T) {
	s := Scenario{City: "sf", Seed: 11, Jitter: true}.Build()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	jitter := reg.Counter("api_jitter_served_total")
	var events []bus.Event
	s.SetEventSinks(func(e bus.Event) { events = append(events, e) }, nil)
	clients := make([]string, 24)
	for i := range clients {
		clients[i] = fmt.Sprintf("ev-%02d", i)
		s.Register(clients[i])
	}
	srv := NewServer(s)
	locs := probeLocs(s, 4)
	jitters := 0
	for epoch := 0; epoch < 72; epoch++ {
		s.Step()
		for i, c := range clients {
			loc := locs[(epoch+i)%len(locs)]
			n, j := len(events), jitter.Value()
			if rec := record(srv, pingURL(c, loc)); rec.Code != http.StatusOK {
				t.Fatalf("HTTP ping: %d %s", rec.Code, rec.Body.Bytes())
			}
			if len(events) != n+1 {
				t.Fatalf("epoch %d %s: an HTTP ping published %d events, want 1", epoch, c, len(events)-n)
			}
			httpJitter := jitter.Value() - j
			if _, err := s.PingClient(c, loc); err != nil {
				t.Fatal(err)
			}
			if len(events) != n+2 {
				t.Fatalf("epoch %d %s: PingClient published %d events, want 1", epoch, c, len(events)-n-1)
			}
			got, want := events[n], events[n+1]
			if got.Time != want.Time || got.Kind != want.Kind || got.Key != want.Key || got.Area != want.Area || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("epoch %d %s: HTTP ping event differs from PingClient's\n got %+v\nwant %+v", epoch, c, got, want)
			}
			if want.Kind != bus.KindPing {
				t.Fatalf("event kind %v, want KindPing", want.Kind)
			}
			if inJitter := jitter.Value() - j - httpJitter; httpJitter != inJitter {
				t.Fatalf("epoch %d %s: api_jitter_served_total moved %d for the HTTP ping, %d for PingClient", epoch, c, httpJitter, inJitter)
			}
			jitters += int(httpJitter)
		}
	}
	if jitters == 0 {
		t.Fatal("no ping fell in a jitter window: the counter was not tested")
	}
}

// Writing a ping body into a warmed buffer allocates nothing, with location
// fuzz off and on; PingClient still allocates its response, its product
// list and, per product that has cars, one car list and one point slab for
// their paths, and nothing else: the walk boxes no sink on the in-process
// path.
func TestPingBodyAllocs(t *testing.T) {
	s := testBackend(t, true)
	loc := center(s)
	buf := getBody()
	defer putBody(buf)
	write := func() {
		buf.ping.Reset()
		if err := s.ping("tester", loc, &buf.ping); err != nil {
			t.Fatal(err)
		}
		if _, err := buf.ping.End(); err != nil {
			t.Fatal(err)
		}
	}
	for _, fuzz := range []float64{0, 25} {
		s.SetLocationFuzz(fuzz)
		write()
		if n := testing.AllocsPerRun(100, write); n != 0 {
			t.Errorf("fuzz %v: %.1f allocations per ping body, want 0", fuzz, n)
		}
	}
	s.SetLocationFuzz(0)
	resp, err := s.PingClient("tester", loc)
	if err != nil {
		t.Fatal(err)
	}
	want := 2
	for _, ts := range resp.Types {
		if len(ts.Cars) > 0 {
			want += 2
		}
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := s.PingClient("tester", loc); err != nil {
			t.Fatal(err)
		}
	})
	if n != float64(want) {
		t.Errorf("PingClient: %.1f allocations, want %d (response, products, %d car lists and point slabs)", n, want, want-2)
	}
}

// pingedShardEpochs steps a shard 48 times, pinging it at 12 locations
// before each Step (none when ping is nil), and returns how many retired
// epochs its publishes recycled and how many a query still pinned.
func pingedShardEpochs(t *testing.T, ping func(s *Service, loc geo.LatLng)) (recycled, pinned int64) {
	t.Helper()
	s := testBackend(t, false)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	locs := probeLocs(s, 12)
	for i := 0; i < 48; i++ {
		for _, loc := range locs {
			if ping != nil {
				ping(s, loc)
			}
		}
		s.Step()
	}
	return reg.Counter("api_epochs_recycled_total").Value(), reg.Counter("api_epochs_pinned_total").Value()
}

// No ping keeps an epoch from reuse: a shard pinged between its Steps over
// HTTP, by PingClient or by PingInto into one reused response recycles
// exactly the epochs a query-free shard does and pins none, because every
// ping releases its epoch before it returns and copies what it keeps.
func TestPingsLeaveEpochReuseAlone(t *testing.T) {
	quiet, quietPinned := pingedShardEpochs(t, nil)
	if quiet == 0 || quietPinned != 0 {
		t.Errorf("a quiet shard recycled %d epochs and pinned %d", quiet, quietPinned)
	}
	var resp core.PingResponse
	pings := map[string]func(s *Service, loc geo.LatLng){
		"HTTP": func(s *Service, loc geo.LatLng) {
			if rec := record(NewServer(s), pingURL("tester", loc)); rec.Code != http.StatusOK {
				t.Fatalf("HTTP ping: %d", rec.Code)
			}
		},
		"PingClient": func(s *Service, loc geo.LatLng) {
			if _, err := s.PingClient("tester", loc); err != nil {
				t.Fatal(err)
			}
		},
		"PingInto": func(s *Service, loc geo.LatLng) {
			if err := s.PingInto("tester", loc, &resp); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, ping := range pings {
		if recycled, pinned := pingedShardEpochs(t, ping); recycled != quiet || pinned != 0 {
			t.Errorf("%s pings: %d epochs recycled and %d pinned, a quiet shard %d and 0", name, recycled, pinned, quiet)
		}
	}
}
