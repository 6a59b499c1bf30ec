package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// The million-driver tick rests on an allocation-free movement phase (the
// per-tick cost proportional to fleet size) and on a snapshot build that
// allocates per product and per car, never per cell. These guards pin
// both; CI runs them with the normal test suite.

// TestMovePhaseZeroAlloc drives a serial world to steady state, then
// checks the whole movement phase — shard RNGs, state machines, path
// rings, grid commits, and on streets the route plans and route following
// — runs without a single heap allocation.
func TestMovePhaseZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("long warmup")
	}
	for _, streets := range []bool{false, true} {
		p := Manhattan()
		p.RoadNetwork = streets
		w := NewWorld(Config{Profile: p, Seed: 21, Workers: 1})
		// Reach steady state under the full tick first (populations, shard
		// buffers, shard RNGs, path buffers), then under the isolated move
		// phase (drains the sessions that expire at the frozen clock and
		// saturates grid-cell capacities under cruise drift).
		for i := 0; i < 1000; i++ {
			w.Step()
		}
		for i := 0; i < 600; i++ {
			w.moveDrivers()
		}
		before := w.RoadWork()
		if avg := testing.AllocsPerRun(200, func() { w.moveDrivers() }); avg != 0 {
			t.Errorf("move phase (streets %v) allocates %.3f times per tick, want 0", streets, avg)
		}
		if planned := w.RoadWork().Routes - before.Routes; streets && planned == 0 {
			t.Error("the measured street ticks planned no route")
		}
	}
}

// rushWorld returns an instrumented 24× Manhattan at the evening rush,
// stepped and snapshotted until every car's path ring is full.
func rushWorld(seed int64) (*World, *obs.Registry) {
	w := NewWorld(Config{Profile: Manhattan().Scale(24), Seed: seed, StartTime: 17 * 3600, Workers: 1})
	reg := obs.NewRegistry()
	w.Instrument(reg)
	for i := 0; i < 2*(pathLen+1); i++ {
		w.Step()
		w.Snapshot()
	}
	return w, reg
}

// TestSnapshotAllocsPerBuild pins the shape of a build that recycles
// nothing: one cell table and one slab per offered product, one buffer per
// frozen fleet column, and a constant for the epoch itself (its struct, the
// frozen trip) — however many cells and cars the fleet occupies.
func TestSnapshotAllocsPerBuild(t *testing.T) {
	w, reg := rushWorld(22)
	cells := reg.Counter("sim_snapshot_cells_rebuilt_total")
	columns := reflect.TypeOf(carColumns{}).NumField()
	offered := 0
	for _, share := range w.Profile().FleetShare {
		if share > 0 {
			offered++
		}
	}
	var ms runtime.MemStats
	for i := 0; i < 12; i++ {
		w.Step()
		runtime.ReadMemStats(&ms)
		mallocs, c := ms.Mallocs, cells.Value()
		w.Snapshot()
		runtime.ReadMemStats(&ms)
		c = cells.Value() - c
		got, want := int64(ms.Mallocs-mallocs), int64(2*offered+columns)+12
		if c < int64(20*offered) {
			t.Fatalf("build %d filled %d cells; the fleet is not spread out", i, c)
		}
		if got > want {
			t.Errorf("build %d allocated %d objects for %d products and %d cells, want <= %d",
				i, got, offered, c, want)
		}
	}
}

// TestSnapshotBytesPerCar pins what a build that recycles nothing costs per
// car: every idle car cruises every tick, so every build copies the whole
// idle fleet's slots and positions, and each idle car may allocate only its
// slab entry and its share of the frozen columns (every slot below the
// fleet's high one, with a sixteenth of room), of the cell tables and of
// the epoch struct.
func TestSnapshotBytesPerCar(t *testing.T) {
	w, reg := rushWorld(23)
	cars := reg.Counter("sim_snapshot_cars_reencoded_total")
	tables := 0
	for range core.NumVehicleTypes {
		tables += w.grid.NumCells() * int(unsafe.Sizeof([]geo.SlotPoint(nil)))
	}
	perSlot := unsafe.Sizeof("") + pathLen*unsafe.Sizeof(geo.Point{}) + 2 // session, path ring, pathN, pathPos
	var ms runtime.MemStats
	lo, hi, tight := math.Inf(1), 0.0, math.Inf(1)
	for i := 0; i < 12; i++ {
		w.Step()
		runtime.ReadMemStats(&ms)
		bytes, n := ms.TotalAlloc, cars.Value()
		w.Snapshot()
		runtime.ReadMemStats(&ms)
		n = cars.Value() - n
		if n < int64(w.fleet.n/2) {
			t.Fatalf("build %d froze %d idle cars of %d online; most of this fleet should be idle", i, n, w.fleet.n)
		}
		per := float64(ms.TotalAlloc-bytes) / float64(n)
		high := w.fleet.high
		frozen := (high + high/16) * int(perSlot)
		limit := float64(unsafe.Sizeof(geo.SlotPoint{})) + float64(frozen+tables+64<<10)/float64(n)
		if per > limit {
			t.Errorf("build %d allocated %.1f B per idle car, want <= %.1f", i, per, limit)
		}
		lo, hi, tight = min(lo, per), max(hi, per), min(tight, limit)
	}
	if hi > 1.5*lo {
		t.Errorf("bytes per idle car range %.1f..%.1f over 12 builds, want max/min <= 1.5", lo, hi)
	}
	t.Logf("%.1f..%.1f B per idle car, limit >= %.1f", lo, hi, tight)
}

// TestSnapshotRecycledBytesPerCar pins the production shape: with the epoch
// two back recycled before each build, as api.Service.publish does, a steady
// build writes into the segments and columns it was handed and allocates at
// most a byte per car, besides the columns it remade when the fleet's high
// slot outgrew them.
func TestSnapshotRecycledBytesPerCar(t *testing.T) {
	w, reg := rushWorld(23)
	cars := reg.Counter("sim_snapshot_cars_reencoded_total")
	epochs := []*Snapshot{w.Snapshot(), w.Snapshot()}
	var ms runtime.MemStats
	hi, remade := 0.0, 0
	for i := 0; i < 24; i++ {
		w.Step()
		w.Recycle(epochs[len(epochs)-2])
		spare := w.snap.spareCars
		runtime.ReadMemStats(&ms)
		bytes, n := ms.TotalAlloc, cars.Value()
		s := w.Snapshot()
		runtime.ReadMemStats(&ms)
		epochs = append(epochs, s)
		n = cars.Value() - n
		regrown := columnRegrowth(t, spare, s.cars)
		if regrown > 0 {
			remade++
		}
		per := float64(ms.TotalAlloc-bytes-regrown) / float64(n)
		if per > 1 {
			t.Errorf("build %d allocated %.2f B per idle car, want <= 1", i, per)
		}
		hi = max(hi, per)
	}
	t.Logf("<= %.2f B per idle car; %d of 24 builds remade their columns", hi, remade)
}

// columnRegrowth returns the bytes of the frozen columns got that a build
// made anew instead of refilling spare, the columns it was handed. It fails
// t when the build remade a column that spare had room for.
func columnRegrowth(t testing.TB, spare, got carColumns) uint64 {
	t.Helper()
	return regrownColumn(t, spare.session, got.session) + regrownColumn(t, spare.path, got.path) +
		regrownColumn(t, spare.pathN, got.pathN) + regrownColumn(t, spare.pathPos, got.pathPos)
}

func regrownColumn[T any](t testing.TB, spare, got []T) uint64 {
	t.Helper()
	if spare != nil && unsafe.SliceData(got) == unsafe.SliceData(spare) {
		return 0
	}
	if spare != nil && len(got) <= cap(spare) {
		t.Fatalf("a frozen column of %d slots was made anew; the one handed back held %d", len(got), cap(spare))
	}
	// What the runtime allocated for cap(got) elements: append from nil
	// rounds the capacity up to the size class, as the allocation did.
	return uint64(cap(append([]T(nil), make([]T, cap(got))...))) * uint64(unsafe.Sizeof(*new(T)))
}

// TestWorldBytesPerSlot pins what a euclidean world holds per fleet slot.
// After a GC, the heap it keeps may not exceed the layout: the fleet's
// columns at their capacity, each live session's ID, one slot table for all
// the grid's layers (two int32 per slot, grown by append like the columns),
// the grid's cells (every layer's cell headers and the entries their
// capacity holds), the movement shards' buffers, and 512 KiB for everything
// sized by the city rather than the fleet. Ten slot tables, or street-route
// columns on a world that never drives on streets, exceed it. A world on
// streets does hold its route state, one entry per slot.
func TestWorldBytesPerSlot(t *testing.T) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	w := NewWorld(Config{Profile: Manhattan().Scale(96), Seed: 24, StartTime: 17 * 3600, Workers: 1})
	for i := 0; i < 20; i++ {
		w.Step()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := int64(ms.HeapAlloc) - int64(before)

	f := &w.fleet
	columns := capBytes(reflect.ValueOf(f).Elem())
	sessions := 24 * f.n // a 17-byte ID takes the 24-byte size class
	table := 2 * 4 * cap(appendOneByOne[int32](f.high))
	cells := 0
	for layer := 0; layer <= poolLayer; layer++ {
		for c := 0; c < w.grid.NumCells(); c++ {
			cells += int(unsafe.Sizeof([]geo.SlotPoint(nil))) + cap(w.grid.Cell(layer, c))*int(unsafe.Sizeof(geo.SlotPoint{}))
		}
	}
	shards := 0
	for i := range w.moveOps {
		shards += capBytes(reflect.ValueOf(&w.moveOps[i]).Elem())
	}
	layout := int64(columns + sessions + table + cells + shards + 512<<10)
	runtime.KeepAlive(w)
	per := func(b int64) float64 { return float64(b) / float64(f.high) }
	t.Logf("%d slots: %.1f B per slot held, layout %.1f (columns %.1f, sessions %.1f, slot table %.1f, cells %.1f, shard buffers %.1f)",
		f.high, per(held), per(layout), per(int64(columns)), per(int64(sessions)), per(int64(table)), per(int64(cells)), per(int64(shards)))
	if held > layout {
		t.Errorf("a euclidean world of %d slots holds %.1f B per slot, want <= %.1f", f.high, per(held), per(layout))
	}
	// The fleet's columns are 243 B per slot. A column added on purpose
	// raises this pin; street-route state is the street mover's, not the
	// fleet's.
	if got := slotBytes(reflect.TypeOf(fleet{})) + (pathLen-1)*unsafe.Sizeof(geo.Point{}); got != 243 {
		t.Errorf("the fleet's columns hold %d B per slot, want 243", got)
	}
	if _, ok := w.mv.(*street); ok {
		t.Fatal("a euclidean world moves on streets")
	}

	profile := Manhattan()
	profile.RoadNetwork = true
	rw := NewWorld(Config{Profile: profile, Seed: 24, StartTime: 17 * 3600, Workers: 1})
	rw.Step()
	m, ok := rw.mv.(*street)
	if !ok || len(m.route) != rw.fleet.high || len(m.routeHop) != rw.fleet.high || len(m.routeNext) != rw.fleet.high ||
		len(m.routeEdge) != rw.fleet.high || len(m.routeGoal) != rw.fleet.high {
		t.Fatalf("a road world of %d slots must hold route state for each", rw.fleet.high)
	}
}

// capBytes returns the bytes the slice fields of struct v (embedded structs
// and arrays of slices included) hold at their capacity.
func capBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += capBytes(v.Field(i))
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += capBytes(v.Index(i))
		}
		return n
	}
	return 0
}

// slotBytes returns the bytes one element of each slice field of struct
// type ty (embedded structs included) takes.
func slotBytes(ty reflect.Type) uintptr {
	switch ty.Kind() {
	case reflect.Slice:
		return ty.Elem().Size()
	case reflect.Struct:
		var n uintptr
		for i := 0; i < ty.NumField(); i++ {
			n += slotBytes(ty.Field(i).Type)
		}
		return n
	}
	return 0
}

// appendOneByOne grows a slice to n elements one append at a time, as the
// fleet's columns and the grid's slot table grow.
func appendOneByOne[T any](n int) []T {
	var s []T
	for len(s) < n {
		s = append(s, *new(T))
	}
	return s
}
