package api

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// legacyPing reassembles a PingResponse the way the pre-snapshot service
// did: straight off the live world and engine (brute-force AreaOf, direct
// NearestCars/EWT calls). The lock-free path must be indistinguishable
// from it at every tick.
func legacyPing(s *Service, clientID string, loc geo.LatLng) (*core.PingResponse, error) {
	if err := s.auth(clientID); err != nil {
		return nil, err
	}
	w, e := s.World(), s.Engine().View()
	proj := w.Projection()
	p := proj.ToPlane(loc)
	if !w.Profile().Region.Contains(p) {
		return nil, ErrOutOfService
	}
	area := sim.AreaOf(w.Areas(), p)
	now := w.Now()
	fuzz := s.fuzzMeters()
	resp := &core.PingResponse{Time: now}
	for _, vt := range s.offered {
		ts := core.TypeStatus{
			Type:       vt,
			TypeName:   vt.String(),
			Cars:       w.NearestCars(vt, p, core.MaxVisibleCars),
			EWTSeconds: w.EWT(vt, p),
			Surge:      1,
		}
		if vt.Surgeable() {
			ts.Surge = e.ClientMultiplier(clientID, area, now)
		}
		if fuzz > 0 {
			for i := range ts.Cars {
				ts.Cars[i].Pos = fuzzPos(proj, fuzz, ts.Cars[i].ID, now, ts.Cars[i].Pos)
			}
		}
		resp.Types = append(resp.Types, ts)
	}
	return resp, nil
}

// legacyPrice mirrors the pre-snapshot EstimatePrice (minus the rate-limit
// charge, which the snapshot path still performs through the shared table).
func legacyPrice(s *Service, clientID string, loc geo.LatLng) ([]core.PriceEstimate, error) {
	w, e := s.World(), s.Engine().View()
	p := w.Projection().ToPlane(loc)
	if !w.Profile().Region.Contains(p) {
		return nil, ErrOutOfService
	}
	area := sim.AreaOf(w.Areas(), p)
	now := w.Now()
	out := make([]core.PriceEstimate, 0, len(s.offered))
	for _, vt := range s.offered {
		m := 1.0
		if vt.Surgeable() {
			m = e.APIMultiplier(area, now)
		}
		const nominalMeters, nominalSeconds = 5000.0, 900.0
		mid := s.fares[vt].Fare(nominalMeters, nominalSeconds, m)
		out = append(out, core.PriceEstimate{
			TypeName: vt.String(),
			Surge:    m,
			LowUSD:   mid * 0.8,
			HighUSD:  mid * 1.2,
			Currency: "USD",
		})
	}
	return out, nil
}

func legacyTime(s *Service, loc geo.LatLng) ([]core.TimeEstimate, error) {
	w := s.World()
	p := w.Projection().ToPlane(loc)
	if !w.Profile().Region.Contains(p) {
		return nil, ErrOutOfService
	}
	out := make([]core.TimeEstimate, 0, len(s.offered))
	for _, vt := range s.offered {
		out = append(out, core.TimeEstimate{
			TypeName:   vt.String(),
			EWTSeconds: w.EWT(vt, p),
		})
	}
	return out, nil
}

// TestSnapshotServedEquivalence pins the tentpole's safety property: for
// any tick, client, and location, the snapshot-served endpoints return
// exactly what the locked implementation returned — same floats, same car
// order, same jitter windows — with location fuzz both off and on, and
// with the simulation tick running both serially and multi-worker (the
// phase-parallel Step and concurrent snapshot build must not change a
// single response byte).
func TestSnapshotServedEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, fuzz := range []float64{0, 25} {
			t.Run(fmt.Sprintf("workers=%d/fuzz=%v", workers, fuzz), func(t *testing.T) {
				s := Scenario{City: "sf", Seed: 11, Jitter: true, Workers: workers}.Build()
				s.SetLocationFuzz(fuzz)
				clients := make([]string, 6)
				for i := range clients {
					clients[i] = fmt.Sprintf("eq-%02d", i)
					s.Register(clients[i])
				}
				region := s.World().Profile().Region
				proj := s.World().Projection()
				pts := make([]geo.LatLng, 0, 9)
				for i := 0; i < 3; i++ {
					for j := 0; j < 3; j++ {
						pts = append(pts, proj.ToLatLng(geo.Point{
							X: region.Min.X + (0.1+0.4*float64(i))*(region.Max.X-region.Min.X),
							Y: region.Min.Y + (0.1+0.4*float64(j))*(region.Max.Y-region.Min.Y),
						}))
					}
				}
				for tick := 0; tick < 40; tick++ {
					s.Step()
					c := clients[tick%len(clients)]
					for _, loc := range pts {
						got, err := s.PingClient(c, loc)
						if err != nil {
							t.Fatal(err)
						}
						want, err := legacyPing(s, c, loc)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("tick %d client %s loc %v: snapshot ping diverges\n got %+v\nwant %+v",
								tick, c, loc, got, want)
						}
						gp, err := s.EstimatePrice(c, loc)
						if err != nil {
							t.Fatal(err)
						}
						wp, err := legacyPrice(s, c, loc)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gp, wp) {
							t.Fatalf("tick %d: snapshot price diverges\n got %+v\nwant %+v", tick, gp, wp)
						}
						gt, err := s.EstimateTime(c, loc)
						if err != nil {
							t.Fatal(err)
						}
						wt, err := legacyTime(s, loc)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gt, wt) {
							t.Fatalf("tick %d: snapshot time diverges\n got %+v\nwant %+v", tick, gt, wt)
						}
					}
				}
			})
		}
	}
}

// TestSnapshotServedOutOfService checks the error path is served from the
// snapshot with identical semantics.
func TestSnapshotServedOutOfService(t *testing.T) {
	s := Scenario{City: "manhattan", Seed: 5}.Build()
	s.Register("eq-err")
	far := geo.LatLng{Lat: 0, Lng: 0}
	if _, err := s.PingClient("eq-err", far); err != ErrOutOfService {
		t.Fatalf("PingClient far away: err = %v, want ErrOutOfService", err)
	}
	if _, err := s.EstimatePrice("eq-err", far); err != ErrOutOfService {
		t.Fatalf("EstimatePrice far away: err = %v, want ErrOutOfService", err)
	}
	if _, err := s.PingClient("nobody", far); err == nil {
		t.Fatal("unknown account must fail before region check")
	}
}
