package api

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/surge"
)

// epochAnswers reads every product's NearestCars (paths copied out) and EWT
// at each point from one snapshot.
func epochAnswers(snap *sim.Snapshot, pts []geo.Point) (cars [][]core.CarView, ewts []float64) {
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

// TestServiceStepAllocs pins what a steady Service.Step allocates: with the
// retired epochs' slabs, cell tables and factor table reused, what is left
// is the history chunks the build renews (176 B each) and a small constant
// for the tick, the engine and the epoch itself — not a slab and a cell
// table per product every tick.
func TestServiceStepAllocs(t *testing.T) {
	profile := sim.Manhattan().Scale(24)
	w := sim.NewWorld(sim.Config{Profile: profile, Seed: 24, StartTime: 15 * 3600, Workers: 1})
	s := NewService(w, surge.New(w, surge.Config{Params: profile.Surge, Seed: 24}))
	reg := obs.NewRegistry()
	s.Instrument(reg)
	renewals := reg.Counter("sim_snapshot_history_renewals_total")
	for i := 0; i < 24; i++ {
		s.Step()
	}
	const steps, chunkBytes, slack = 12, 176, 32 << 10
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes, r := ms.TotalAlloc, renewals.Value()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	runtime.ReadMemStats(&ms)
	per := float64(ms.TotalAlloc-bytes) / steps
	r = renewals.Value() - r
	if limit := float64(r*chunkBytes)/steps + slack; per > limit {
		t.Fatalf("a Service.Step allocated %.0f B, want <= %.0f (%d history renewals per step)", per, limit, r/steps)
	}
	t.Logf("%.0f B per Service.Step, %d history renewals per step", per, r/steps)
}
