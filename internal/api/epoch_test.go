package api

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/surge"
)

// epochReader is what a snapshot and the live world it was taken from both
// answer.
type epochReader interface {
	NearestCars(vt core.VehicleType, pos geo.Point, k int) []core.CarView
	EWT(vt core.VehicleType, pos geo.Point) float64
}

// epochAnswers reads every product's NearestCars (paths copied out) and EWT
// at each point from one snapshot, or from the world.
func epochAnswers(snap epochReader, pts []geo.Point) (cars [][]core.CarView, ewts []float64) {
	for _, p := range pts {
		for _, vt := range core.AllVehicleTypes() {
			views := snap.NearestCars(vt, p, core.MaxVisibleCars)
			for i := range views {
				views[i].Path = append([]geo.LatLng(nil), views[i].Path...)
			}
			cars = append(cars, views)
			ewts = append(ewts, snap.EWT(vt, p))
		}
	}
	return cars, ewts
}

// A pinned epoch is never recycled: an epoch pinned across three Steps —
// the first retires it, the second would hand its buffers to the next build
// — must answer exactly as it did when pinned, while concurrent pings and
// time estimates pin and release the epochs around it. Run under -race, a
// build writing into a pinned epoch's slab also shows as a data race.
func TestPinnedEpochSurvivesSteps(t *testing.T) {
	s := testBackend(t, false)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	region := s.World().Profile().Region
	var pts []geo.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			pts = append(pts, geo.Point{
				X: region.Min.X + (0.1+0.25*float64(i))*region.Width(),
				Y: region.Min.Y + (0.15+0.35*float64(j))*region.Height(),
			})
		}
	}

	const readers = 3
	var stop atomic.Bool
	var wg sync.WaitGroup
	started := make(chan struct{}, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			signaled := false
			signal := func() {
				if !signaled {
					signaled = true
					started <- struct{}{}
				}
			}
			defer signal()
			loc := s.World().Projection().ToLatLng(pts[r])
			for n := 0; !stop.Load(); n++ {
				// A fresh account every few hundred estimates keeps the rate
				// limit from short-cutting the snapshot read.
				id := fmt.Sprintf("pin-%d-%d", r, n/500)
				s.Register(id)
				if _, err := s.PingClient(id, loc); err != nil {
					t.Errorf("PingClient: %v", err)
					return
				}
				if _, err := s.EstimateTime(id, loc); err != nil {
					t.Errorf("EstimateTime: %v", err)
					return
				}
				signal()
			}
		}(r)
	}
	for r := 0; r < readers; r++ {
		<-started
	}

	st := s.acquire()
	cars, ewts := epochAnswers(st.world, pts)
	for i := 0; i < 3; i++ {
		s.Step()
	}
	gotCars, gotEWTs := epochAnswers(st.world, pts)
	st.release()
	stop.Store(true)
	wg.Wait()
	if !reflect.DeepEqual(gotCars, cars) || !reflect.DeepEqual(gotEWTs, ewts) {
		t.Fatal("a pinned epoch's answers changed across three Steps")
	}
	if n := reg.Counter("api_epochs_pinned_total").Value(); n < 1 {
		t.Fatalf("api_epochs_pinned_total = %d after a pinned epoch was retired and offered for reuse", n)
	}
	// Nothing pins now: every publish recycles the epoch retired before it.
	recycled := reg.Counter("api_epochs_recycled_total")
	before := recycled.Value()
	for i := 0; i < 3; i++ {
		s.Step()
	}
	if got := recycled.Value() - before; got != 3 {
		t.Fatalf("%d of 3 unpinned publishes recycled the retired epoch", got)
	}
}

// epochPoints is a 4×3 lattice of plane points over the service region.
func epochPoints(s *Service) []geo.Point {
	region := s.World().Profile().Region
	var pts []geo.Point
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			pts = append(pts, geo.Point{
				X: region.Min.X + (0.1+0.25*float64(i))*region.Width(),
				Y: region.Min.Y + (0.15+0.35*float64(j))*region.Height(),
			})
		}
	}
	return pts
}

// copyPing deep-copies a ping response, paths included.
func copyPing(r *core.PingResponse) *core.PingResponse {
	c := *r
	c.Types = slices.Clone(r.Types)
	for i := range c.Types {
		c.Types[i].Cars = slices.Clone(r.Types[i].Cars)
		for j := range c.Types[i].Cars {
			c.Types[i].Cars[j].Path = slices.Clone(r.Types[i].Cars[j].Path)
		}
	}
	return &c
}

// A Path a ping returned is the caller's for good: publish hands the slabs of
// recycled epochs to later builds, which overwrite the paths they were read
// from. Responses served over the first eight Steps are held across three
// times as many more, while concurrent pings pin and release the epochs
// around them, and must equal the copies taken when they were served.
func TestServedPathsSurviveReuse(t *testing.T) {
	s := testBackend(t, false)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	recycled := reg.Counter("api_epochs_recycled_total")
	proj := s.World().Projection()
	pts := epochPoints(s)

	const readers = 2
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(loc geo.LatLng) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.PingClient("tester", loc); err != nil {
					t.Errorf("PingClient: %v", err)
					return
				}
			}
		}(proj.ToLatLng(pts[r]))
	}

	// Eight builds: more than a path length.
	const servedBuilds = 8
	type served struct{ resp, copy *core.PingResponse }
	var held []served
	for i := 0; i < 4*servedBuilds; i++ {
		if i < servedBuilds {
			for _, p := range pts[readers:] {
				resp, err := s.PingClient("tester", proj.ToLatLng(p))
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, served{resp, copyPing(resp)})
			}
		}
		s.Step()
	}
	stop.Store(true)
	wg.Wait()
	for i, h := range held {
		if !reflect.DeepEqual(h.resp, h.copy) {
			t.Fatalf("held response %d changed after it was served:\n now  %+v\n then %+v", i, h.resp, h.copy)
		}
	}
	if recycled.Value() == 0 {
		t.Fatal("no publish recycled an epoch: nothing was tested")
	}
}

// A pinned epoch's buffers are not reused either, though no query was served
// from it yet: the epoch pinned here is first read after 24 Steps, while the
// epochs after it are recycled, and must then answer as the live world did
// when it was pinned.
func TestPinnedEpochBuffersNotReused(t *testing.T) {
	s := testBackend(t, false)
	reg := obs.NewRegistry()
	s.Instrument(reg)
	recycled := reg.Counter("api_epochs_recycled_total")
	pts := epochPoints(s)

	st := s.acquire()
	// Nothing steps the world while it shows the pinned epoch's instant.
	cars, ewts := epochAnswers(s.World(), pts)
	for i := 0; i < 24; i++ {
		s.Step()
	}
	gotCars, gotEWTs := epochAnswers(st.world, pts)
	st.release()
	if !reflect.DeepEqual(gotCars, cars) || !reflect.DeepEqual(gotEWTs, ewts) {
		t.Fatal("a pinned epoch no query had read answered differently after 24 Steps")
	}
	if recycled.Value() == 0 {
		t.Fatal("no publish recycled an epoch: nothing was tested")
	}
}

// TestServiceStepAllocs pins what a steady, query-free Service.Step
// allocates: with the retired epochs' slab segments, cell tables, frozen
// fleet columns and factor table reused, what is left is a small constant
// for the tick, the engine and the epoch itself — not a slab and a cell
// table per product every tick.
func TestServiceStepAllocs(t *testing.T) {
	profile := sim.Manhattan().Scale(24)
	w := sim.NewWorld(sim.Config{Profile: profile, Seed: 24, StartTime: 15 * 3600, Workers: 1})
	s := NewService(w, surge.New(w, surge.Config{Params: profile.Surge, Seed: 24}))
	for i := 0; i < 24; i++ {
		s.Step()
	}
	const steps, limit = 12, 32 << 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes := ms.TotalAlloc
	for i := 0; i < steps; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&ms)
	per := float64(ms.TotalAlloc-bytes) / steps
	if per > limit {
		t.Errorf("a Service.Step allocated %.0f B, want <= %d", per, limit)
	}
	t.Logf("%.0f B per Service.Step", per)
}
