package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
)

// snapshotWorld returns a mid-morning Manhattan world with traffic flowing.
func snapshotWorld(t testing.TB, seed int64) *World {
	t.Helper()
	w := NewWorld(Config{Profile: Manhattan(), Seed: seed, StartTime: 8 * 3600})
	w.Run(9 * 3600)
	return w
}

// requireSnapshotMatchesWorld asks s and the live world it was just taken
// from the same questions at n random points: AreaOf, and every product's
// EWT and NearestCars, which must agree exactly.
func requireSnapshotMatchesWorld(t *testing.T, w *World, s *Snapshot, rng *rand.Rand, n int) {
	t.Helper()
	requireSnapshotAnswers(t, s, worldAnswers(w, rng, n))
}

// answers are the live world's replies at some instant to the questions a
// snapshot of that instant must answer identically.
type answers struct {
	now   int64
	pts   []geo.Point
	areas []int
	ewts  [][core.NumVehicleTypes]float64
	cars  [][core.NumVehicleTypes][]core.CarView
}

// worldAnswers asks the live world AreaOf, and every product's EWT and
// NearestCars, at n random points.
func worldAnswers(w *World, rng *rand.Rand, n int) answers {
	a := answers{now: w.Now()}
	r := w.Profile().Region
	for q := 0; q < n; q++ {
		p := geo.Point{
			X: r.Min.X + rng.Float64()*r.Width(),
			Y: r.Min.Y + rng.Float64()*r.Height(),
		}
		var ewts [core.NumVehicleTypes]float64
		var cars [core.NumVehicleTypes][]core.CarView
		for _, vt := range core.AllVehicleTypes() {
			ewts[vt] = w.EWT(vt, p)
			cars[vt] = w.NearestCars(vt, p, core.MaxVisibleCars)
		}
		a.pts, a.areas = append(a.pts, p), append(a.areas, AreaOf(w.Areas(), p))
		a.ewts, a.cars = append(a.ewts, ewts), append(a.cars, cars)
	}
	return a
}

// requireSnapshotAnswers asks s the questions of a, which it must answer
// exactly as the world did.
func requireSnapshotAnswers(t *testing.T, s *Snapshot, a answers) {
	t.Helper()
	if s.Now != a.now {
		t.Fatalf("snapshot Now = %d, world Now = %d", s.Now, a.now)
	}
	for q, p := range a.pts {
		if got, want := s.AreaOf(p), a.areas[q]; got != want {
			t.Fatalf("AreaOf(%v) = %d, brute force = %d", p, got, want)
		}
		for _, vt := range core.AllVehicleTypes() {
			if got, want := s.EWT(vt, p), a.ewts[q][vt]; got != want {
				t.Fatalf("EWT(%v, %v) = %v, world = %v", vt, p, got, want)
			}
			got, want := s.NearestCars(vt, p, core.MaxVisibleCars), a.cars[q][vt]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("NearestCars(%v, %v):\n snapshot %+v\n world    %+v", vt, p, got, want)
			}
		}
	}
}

// The snapshot must answer NearestCars/EWT/AreaOf exactly as the live
// world does at the tick it was taken.
func TestSnapshotMatchesLiveWorld(t *testing.T) {
	w := snapshotWorld(t, 3)
	rng := rand.New(rand.NewSource(99))
	for tick := 0; tick < 20; tick++ {
		w.Step()
		requireSnapshotMatchesWorld(t, w, w.Snapshot(), rng, 25)
	}
}

// recycleIdleSlot ends a random idle session and logs a new driver on in
// its place; the LIFO free list hands the newcomer the same slot.
func recycleIdleSlot(t *testing.T, w *World, rng *rand.Rand) {
	t.Helper()
	f := &w.fleet
	for i, start := 0, rng.Intn(f.high); i < f.high; i++ {
		s := int32((start + i) % f.high)
		if !f.live[s] || DriverState(f.state[s]) != StateIdle {
			continue
		}
		vt := core.VehicleType(f.typ[s])
		w.removeSlot(s)
		if got := w.addDriver(vt, w.samplePlaceRand(w.rng)); got != s {
			t.Fatalf("new session landed in slot %d, want the freed slot %d", got, s)
		}
		return
	}
	t.Fatal("no idle car to recycle")
}

// Every tick of TestSnapshotMatchesLiveWorld is followed by a build, so
// each car's path moves by one point between builds. Here builds come every
// 1-7 ticks, sessions are replaced inside their slot — mid-path, and
// between two builds with no tick at all — and a coordinated logoff wave
// empties cells between two builds at one instant, so re-seeded paths,
// paths that moved by several points and paths that did not move are all
// held to the from-scratch World answers.
func TestSnapshotAnyCadenceAndSlotReuse(t *testing.T) {
	for _, roads := range []bool{false, true} {
		name := "euclid"
		if roads {
			name = "road"
		}
		t.Run(name, func(t *testing.T) {
			p := Manhattan()
			p.RoadNetwork = roads
			w := NewWorld(Config{Profile: p, Seed: 11, StartTime: 8 * 3600, Workers: 1})
			rng := rand.New(rand.NewSource(5))
			builds, waves, next := 0, 0, 0
			for tick := 0; tick < 640; tick++ {
				if rng.Intn(8) == 0 {
					recycleIdleSlot(t, w, rng)
				}
				w.Step()
				if tick < next {
					continue
				}
				next = tick + 1 + rng.Intn(7)
				requireSnapshotMatchesWorld(t, w, w.Snapshot(), rng, 25)
				switch rng.Intn(4) {
				case 0:
					recycleIdleSlot(t, w, rng)
					requireSnapshotMatchesWorld(t, w, w.Snapshot(), rng, 25)
				case 1:
					area := rng.Intn(len(w.Areas()))
					if w.ForceOffline(core.UberX, area, 10, 60) > 0 {
						waves++
					}
					requireSnapshotMatchesWorld(t, w, w.Snapshot(), rng, 25)
				}
				builds++
			}
			if builds < 100 || waves < 10 {
				t.Fatalf("only %d builds and %d logoff waves in 640 ticks", builds, waves)
			}
		})
	}
}

// Recycled builds answer like fresh ones: every other build is made into the
// buffers of the epoch before it (World.Recycle). A recycled cell table must
// forget the cells that emptied, and recycled slab segments must be reused
// when the idle fleet shrank — a logoff wave between two builds at one
// instant — and gain a segment when it grew, as the wave's drivers return.
// Every epoch, recycled or fresh, is held to the live world's answers.
func TestSnapshotRecycledBuildsMatchFresh(t *testing.T) {
	for _, roads := range []bool{false, true} {
		name := "euclid"
		if roads {
			name = "road"
		}
		t.Run(name, func(t *testing.T) {
			p := Manhattan()
			p.RoadNetwork = roads
			w := NewWorld(Config{Profile: p, Seed: 13, StartTime: 8 * 3600, Workers: 1})
			rng := rand.New(rand.NewSource(6))
			var prev *Snapshot
			builds, reused, regrown := 0, 0, 0
			build := func() {
				if builds%2 == 1 {
					w.Recycle(prev)
					if idleCars(&prev.products[core.UberX]) != 0 {
						t.Fatal("a recycled epoch still reports idle cars")
					}
					if segmentCap(w.snap.spare[core.UberX]) >= w.grid.Len(int(core.UberX)) {
						reused++
					} else {
						regrown++
					}
				}
				prev = w.Snapshot()
				requireSnapshotMatchesWorld(t, w, prev, rng, 10)
				builds++
			}
			waves := 0
			for tick := 0; tick < 300; tick++ {
				w.Step()
				build()
				if rng.Intn(3) == 0 {
					area := rng.Intn(len(w.Areas()))
					if w.ForceOffline(core.UberX, area, 20, 60) > 0 {
						waves++
					}
					build()
				}
			}
			if waves < 30 || reused < 30 || regrown < 30 {
				t.Fatalf("%d logoff waves, %d recycled slabs reused and %d regrown in %d builds", waves, reused, regrown, builds)
			}
			t.Logf("%d logoff waves, %d recycled slabs reused and %d regrown in %d builds", waves, reused, regrown, builds)
		})
	}
}

// segmentCap is how many entries a product's slab segments hold in all.
func segmentCap(pc productCells) int {
	n := cap(pc.slab)
	for _, seg := range pc.more {
		n += cap(seg)
	}
	return n
}

// A build whose idle fleet outgrows the recycled slab segments allocates one
// more segment, not a whole slab, and a build they hold allocates no entry
// at all. The frozen fleet columns are remade only when the fleet's high
// slot outgrew the ones handed back. Epochs are recycled as
// api.Service.publish does, the epoch two back before each build, and logoff
// waves between two builds at one instant shrink the idle fleet, which grows
// again as the wave's drivers return. Every minute a twelfth of the fleet
// logs on at once, past the columns' room. Every epoch is held to the live
// world's answers.
func TestSnapshotGrowsBySegments(t *testing.T) {
	for _, roads := range []bool{false, true} {
		name := "euclid"
		if roads {
			name = "road"
		}
		t.Run(name, func(t *testing.T) {
			p := Manhattan()
			p.RoadNetwork = roads
			w := NewWorld(Config{Profile: p, Seed: 13, StartTime: 8 * 3600, Workers: 1})
			rng := rand.New(rand.NewSource(6))
			const entry = uint64(unsafe.Sizeof(geo.SlotPoint{}))
			var epochs []*Snapshot
			var ms runtime.MemStats
			builds, regrown, remade := 0, 0, 0
			build := func() {
				if n := len(epochs) - 2; n >= 0 {
					w.Recycle(epochs[n])
				}
				var had [core.NumVehicleTypes]int // segments handed back, -1 for none
				for vt, pc := range w.snap.spare {
					had[vt] = -1
					if pc.slab != nil {
						had[vt] = 1 + len(pc.more)
					}
				}
				spareCars := w.snap.spareCars
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				s := w.Snapshot()
				runtime.ReadMemStats(&ms)
				// 8 kB is the epoch struct and its trip, with room for what
				// the runtime allocates meanwhile: less than 350 entries.
				got, want := ms.TotalAlloc-before, uint64(8<<10)
				if spareCars.session != nil {
					if cols := columnRegrowth(t, spareCars, s.cars); cols > 0 {
						remade++
						want += cols
					}
				}
				fresh := spareCars.session == nil // a build with no recycled buffers makes them
				for vt := range s.products {
					pc := &s.products[vt]
					if pc.slab == nil {
						continue
					}
					segs := append([][]geo.SlotPoint{pc.slab}, pc.more...)
					if had[vt] < 0 {
						fresh = true
						continue
					}
					switch len(segs) - had[vt] {
					case 0:
					case 1:
						regrown++
						want += uint64(cap(segs[len(segs)-1]))*entry + uint64(cap(pc.more))*uint64(unsafe.Sizeof(pc.slab))
					default:
						t.Fatalf("build %d added %d segments to %v's %d", builds, len(segs)-had[vt], core.VehicleType(vt), had[vt])
					}
				}
				if !fresh && got > want {
					t.Fatalf("build %d allocated %d B, want <= %d", builds, got, want)
				}
				epochs = append(epochs, s)
				requireSnapshotMatchesWorld(t, w, s, rng, 10)
				builds++
			}
			for tick := 0; tick < 300; tick++ {
				if tick%60 == 59 {
					for n := w.fleet.high / 12; n > 0; n-- {
						w.addDriver(core.UberX, w.samplePlaceRand(w.rng))
					}
				}
				w.Step()
				build()
				if rng.Intn(3) == 0 {
					for i := 0; i < 3; i++ {
						w.ForceOffline(core.UberX, rng.Intn(len(w.Areas())), 40, 60)
					}
					build()
				}
			}
			if regrown < 5 || remade < 3 {
				t.Fatalf("%d of %d builds outgrew their recycled segments and %d their columns", regrown, builds, remade)
			}
			t.Logf("%d of %d builds outgrew their recycled segments and %d their columns", regrown, builds, remade)
		})
	}
}

// Reused slabs never reach a reader. Before every build the epoch two back
// is recycled, as api.Service.publish does, and first read: until then it
// must still answer as the world did when it was built, so a slab segment
// or cell table reused one build early shows as a changed answer. Each
// epoch is read first at its recycle, after the builds that could reuse its
// buffers. Random skips stand in for pins:
// a skipped epoch is never recycled and must answer the same at the end.
// Some recycles come just after the next build instead of just before it,
// which World.Recycle allows: the epoch in between keeps its own buffers.
// Sessions replaced inside their slots and logoff waves between two builds
// at one instant move entries from cell to cell.
func TestSnapshotReusedSlabsNeverReachAReader(t *testing.T) {
	for _, roads := range []bool{false, true} {
		name := "euclid"
		if roads {
			name = "road"
		}
		t.Run(name, func(t *testing.T) {
			// Four times the calibrated fleet: the few cars each epoch's
			// questions are served stay a small share of those renewing.
			p := Manhattan().Scale(4)
			p.RoadNetwork = roads
			w := NewWorld(Config{Profile: p, Seed: 17, StartTime: 8 * 3600, Workers: 1})
			rng := rand.New(rand.NewSource(8))
			type epoch struct {
				s *Snapshot
				a answers
			}
			var epochs, pinned []epoch
			recycled := 0
			// recycle takes the epoch two before the build about to be made
			// (after: just made).
			recycle := func(after bool) {
				i := len(epochs) - 2
				if after {
					i--
				}
				if i < 0 {
					return
				}
				if e := epochs[i]; rng.Intn(16) == 0 {
					pinned = append(pinned, e)
				} else {
					requireSnapshotAnswers(t, e.s, e.a)
					w.Recycle(e.s)
					recycled++
				}
			}
			build := func() {
				late := rng.Intn(4) == 0
				if !late {
					recycle(false)
				}
				s := w.Snapshot()
				epochs = append(epochs, epoch{s, worldAnswers(w, rng, 3)})
				if late {
					recycle(true)
				}
			}
			for tick := 0; tick < 240; tick++ {
				if rng.Intn(4) == 0 {
					recycleIdleSlot(t, w, rng)
				}
				w.Step()
				build()
				if rng.Intn(8) == 0 {
					w.ForceOffline(core.UberX, rng.Intn(len(w.Areas())), 10, 60)
					build()
				}
			}
			for _, e := range pinned {
				requireSnapshotAnswers(t, e.s, e.a)
			}
			if len(pinned) < 5 || 5*recycled < 4*len(epochs) {
				t.Fatalf("%d epochs recycled and %d pinned in %d builds; want four fifths and 5",
					recycled, len(pinned), len(epochs))
			}
			t.Logf("%d epochs recycled, %d pinned in %d builds", recycled, len(pinned), len(epochs))
		})
	}
}

// NearestCars' paths are copies the caller keeps: views read from the first
// epochs are held as returned while those epochs are recycled as
// api.Service.publish does, the epoch two back before each build, and later
// builds overwrite their slabs; they must still equal the deep copies taken
// when they were read. One epoch is skipped, as a pin would.
func TestSnapshotPathsOutliveRecycle(t *testing.T) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 19, StartTime: 8 * 3600, Workers: 1})
	center := w.Profile().Region.Center()
	var held, copies [][]core.CarView
	var epochs []*Snapshot
	recycled := 0
	for i := 0; i < 48; i++ {
		w.Step()
		if n := len(epochs) - 2; n >= 0 && n != 20 {
			w.Recycle(epochs[n])
			recycled++
		}
		s := w.Snapshot()
		epochs = append(epochs, s)
		if i < 8 {
			for _, vt := range core.AllVehicleTypes() {
				views := s.NearestCars(vt, center, core.MaxVisibleCars)
				c := slices.Clone(views)
				for j := range c {
					c[j].Path = slices.Clone(c[j].Path)
				}
				held, copies = append(held, views), append(copies, c)
			}
		}
	}
	if !reflect.DeepEqual(held, copies) {
		t.Fatal("a path NearestCars returned changed after its epoch was recycled")
	}
	if recycled < 40 {
		t.Fatalf("%d epochs recycled: nothing was tested", recycled)
	}
}

// idleCars is how many cars a product's index holds.
func idleCars(pc *productCells) int {
	n := 0
	for _, cell := range pc.cells {
		n += len(cell)
	}
	return n
}

// The snapshot index counts exactly the idle cars of each product.
func TestSnapshotIdleCarCounts(t *testing.T) {
	w := snapshotWorld(t, 5)
	s := w.Snapshot()
	for _, vt := range core.AllVehicleTypes() {
		idle, _, _ := w.CountByState(vt)
		if got := idleCars(&s.products[vt]); got != idle {
			t.Errorf("%v: snapshot has %d idle cars, world has %d", vt, got, idle)
		}
	}
}

// allViews returns a deep copy of every car view the snapshot can serve,
// read through the public query path, plus each product's EWT at center.
func allViews(s *Snapshot) ([][]core.CarView, []float64) {
	center := s.Region.Center()
	var views [][]core.CarView
	var ewts []float64
	for _, vt := range core.AllVehicleTypes() {
		cars := s.NearestCars(vt, center, idleCars(&s.products[vt]))
		for i := range cars {
			cars[i].Path = append([]geo.LatLng(nil), cars[i].Path...)
		}
		views = append(views, cars)
		ewts = append(ewts, s.EWT(vt, center))
	}
	return views, ewts
}

// Published epochs keep answering identically while the world moves on and
// later epochs are built: a build that wrote into memory a held epoch reads
// would show here as a changed view (and, under -race, as a data race with
// the readers). Epochs N, N+1 and N+5 are held across more than three path
// lengths of further builds.
func TestSnapshotImmutableAcrossSteps(t *testing.T) {
	w := snapshotWorld(t, 7)
	type heldEpoch struct {
		s     *Snapshot
		views [][]core.CarView
		ewts  []float64
	}
	var held []heldEpoch
	for i := 0; i <= 5; i++ {
		w.Step()
		if s := w.Snapshot(); i == 0 || i == 1 || i == 5 {
			views, ewts := allViews(s)
			held = append(held, heldEpoch{s, views, ewts})
		}
	}
	unchanged := func() bool {
		for _, h := range held {
			views, ewts := allViews(h.s)
			if !reflect.DeepEqual(views, h.views) || !reflect.DeepEqual(ewts, h.ewts) {
				return false
			}
		}
		return true
	}

	const readers = 2
	var passes [readers]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !unchanged() {
					t.Error("a held epoch's answers changed under a concurrent reader")
					return
				}
				passes[r].Add(1)
			}
		}(r)
	}
	// At least four path lengths of builds, and until every reader has
	// re-read the held epochs several times while builds were going on.
	readersDone := func() bool {
		for r := range passes {
			if passes[r].Load() < 3 {
				return false
			}
		}
		return true
	}
	for i := 0; (i < 4*(pathLen+1) || !readersDone()) && !t.Failed(); i++ {
		w.Step()
		w.Snapshot()
	}
	close(stop)
	wg.Wait()
	if !unchanged() {
		t.Fatal("a held epoch's answers changed after the world stepped")
	}
}

// The world-integrated AreaIndex agrees with the brute-force scan on the
// city partitions, including points on area boundaries and corners.
func TestWorldAreaIndexMatchesAreaOf(t *testing.T) {
	for _, profile := range []*CityProfile{Manhattan(), SanFrancisco()} {
		w := NewWorld(Config{Profile: profile, Seed: 1})
		ai := w.AreaIndex()
		rng := rand.New(rand.NewSource(11))
		r := profile.Region
		for q := 0; q < 5000; q++ {
			p := geo.Point{
				X: r.Min.X + (rng.Float64()*1.2-0.1)*r.Width(),
				Y: r.Min.Y + (rng.Float64()*1.2-0.1)*r.Height(),
			}
			if got, want := ai.Find(p), AreaOf(w.Areas(), p); got != want {
				t.Fatalf("%s: Find(%v) = %d, AreaOf = %d", profile.Name, p, got, want)
			}
		}
		for _, pg := range w.Areas() {
			for i, v := range pg.Vertices {
				next := pg.Vertices[(i+1)%len(pg.Vertices)]
				mid := geo.Point{X: (v.X + next.X) / 2, Y: (v.Y + next.Y) / 2}
				for _, p := range []geo.Point{v, mid} {
					if got, want := ai.Find(p), AreaOf(w.Areas(), p); got != want {
						t.Fatalf("%s: boundary Find(%v) = %d, AreaOf = %d", profile.Name, p, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkSnapshotBuild measures the per-tick build, step included, without
// recycling: every build makes its slabs and cell tables.
func BenchmarkSnapshotBuild(b *testing.B) {
	w := snapshotWorld(b, 42)
	w.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
		s := w.Snapshot()
		if s.Now != w.Now() {
			b.Fatal("bad snapshot")
		}
	}
}

// BenchmarkSnapshotNearest measures one ping's nearest-car query: the
// eight UberX cars nearest a point of the region, read from a frozen
// epoch of a seeded Manhattan world into a reused buffer.
func BenchmarkSnapshotNearest(b *testing.B) {
	w := snapshotWorld(b, 42)
	s := w.Snapshot()
	pts := benchPoints(w.Profile().Region)
	dst := make([]NearCar, 0, core.MaxVisibleCars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.AppendNearest(dst[:0], core.UberX, pts[i%len(pts)], core.MaxVisibleCars)
	}
}

func BenchmarkAreaIndex(b *testing.B) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 1})
	ai := w.AreaIndex()
	pts := benchPoints(w.Profile().Region)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ai.Find(pts[i%len(pts)])
	}
}

func BenchmarkAreaOfLinear(b *testing.B) {
	w := NewWorld(Config{Profile: Manhattan(), Seed: 1})
	areas := w.Areas()
	pts := benchPoints(w.Profile().Region)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AreaOf(areas, pts[i%len(pts)])
	}
}

func benchPoints(r geo.Rect) []geo.Point {
	rng := rand.New(rand.NewSource(2))
	pts := make([]geo.Point, 1024)
	for i := range pts {
		pts[i] = geo.Point{
			X: r.Min.X + rng.Float64()*r.Width(),
			Y: r.Min.Y + rng.Float64()*r.Height(),
		}
	}
	return pts
}
