package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// dirtyResponse is what an earlier, larger answer leaves in a reused
// response: two products more than the service offers, each slot holding
// more cars than a ping serves, a zero-length one or nil, the pattern
// rotated by rot so every slot meets every kind.
func dirtyResponse(nOffered, rot int) *core.PingResponse {
	resp := &core.PingResponse{Time: -1, Types: make([]core.TypeStatus, nOffered+2)}
	for i := range resp.Types {
		ts := &resp.Types[i]
		*ts = core.TypeStatus{Type: core.UberRUSH, TypeName: "stale", EWTSeconds: -1, Surge: -1}
		switch (i + rot) % 3 {
		case 0:
			for j := 0; j < core.MaxVisibleCars+4; j++ {
				ts.Cars = append(ts.Cars, core.CarView{
					ID:   fmt.Sprintf("stale-%d-%d", i, j),
					Pos:  geo.LatLng{Lat: float64(j), Lng: float64(-j)},
					Path: []geo.LatLng{{Lat: 1, Lng: 1}},
				})
			}
		case 1:
			ts.Cars = []core.CarView{}
		}
	}
	return resp
}

// TestPingIntoReusedEquivalence: PingInto into a response an earlier,
// larger answer left dirty answers exactly what a fresh PingClient does at
// the same epoch, client and location — reflect.DeepEqual and the same
// JSON bytes, so a product with no cars is [] whatever its slot held —
// serially and multi-worker, with location fuzz off and on.
func TestPingIntoReusedEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, fuzz := range []float64{0, 25} {
			t.Run(fmt.Sprintf("workers=%d/fuzz=%v", workers, fuzz), func(t *testing.T) {
				// A twentieth of SF's fleet leaves the small products with
				// no idle car at some ticks.
				s := Scenario{City: "sf", Seed: 11, Scale: 0.05, Jitter: true, Workers: workers}.Build()
				s.SetLocationFuzz(fuzz)
				clients := []string{"fill-a", "fill-b", "fill-c"}
				for _, c := range clients {
					s.Register(c)
				}
				region := s.World().Profile().Region
				proj := s.World().Projection()
				var pts []geo.LatLng
				for _, f := range []float64{0.1, 0.5, 0.9} {
					pts = append(pts, proj.ToLatLng(geo.Point{
						X: region.Min.X + f*(region.Max.X-region.Min.X),
						Y: region.Min.Y + (1-f)*(region.Max.Y-region.Min.Y),
					}))
				}
				reused := dirtyResponse(len(s.offered), 0)
				emptyProducts := 0
				for tick := 0; tick < 30; tick++ {
					s.Step()
					for i, loc := range pts {
						c := clients[(tick+i)%len(clients)]
						want, err := s.PingClient(c, loc)
						if err != nil {
							t.Fatal(err)
						}
						// One response reused across the whole run, and one
						// dirtied afresh for this ping.
						for _, got := range []*core.PingResponse{reused, dirtyResponse(len(s.offered), tick+i)} {
							if err := s.PingInto(c, loc, got); err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("tick %d client %s: PingInto into a used response diverges\n got %+v\nwant %+v",
									tick, c, got, want)
							}
							gb, _ := json.Marshal(got)
							wb, _ := json.Marshal(want)
							if !bytes.Equal(gb, wb) {
								t.Fatalf("tick %d client %s: JSON diverges\n got %s\nwant %s", tick, c, gb, wb)
							}
						}
						for _, ts := range want.Types {
							if len(ts.Cars) == 0 {
								emptyProducts++
							}
						}
					}
				}
				if emptyProducts == 0 {
					t.Fatal("no answer had a product with zero cars; the [] case went untested")
				}
			})
		}
	}
}

// A warm PingInto into a reused response allocates nothing, the copied paths
// included, with location fuzz off and on: each car's path goes into the
// Path its slot held.
func TestPingIntoWarmAllocs(t *testing.T) {
	s := testBackend(t, false)
	loc := center(s)
	var resp core.PingResponse
	ping := func() {
		if err := s.PingInto("tester", loc, &resp); err != nil {
			t.Fatal(err)
		}
	}
	for _, fuzz := range []float64{0, 25} {
		s.SetLocationFuzz(fuzz)
		ping()
		points := 0
		for _, ts := range resp.Types {
			for _, c := range ts.Cars {
				points += len(c.Path)
			}
		}
		if points == 0 {
			t.Fatalf("fuzz %v: the answer holds no path point: nothing was tested", fuzz)
		}
		if n := testing.AllocsPerRun(100, ping); n != 0 {
			t.Errorf("fuzz %v: %.1f allocations per warm PingInto, want 0", fuzz, n)
		}
	}
}
