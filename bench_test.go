// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index),
// plus ablations for the design choices the architecture documents.
//
// The figure benchmarks share a pair of 4-hour CityRuns (built once) and
// measure the cost of regenerating each figure's analysis from the
// measured corpus; the campaign-shaped benchmarks (Figs 2 and 4) run a
// reduced campaign per iteration.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/record"
	"repro/internal/road"
	"repro/internal/sim"
	"repro/internal/surge"
)

var (
	benchOnce sync.Once
	benchMHTN *experiments.CityRun
	benchSF   *experiments.CityRun

	benchRoadOnce  sync.Once
	benchRoadGraph *road.Graph
)

func benchRuns(b *testing.B) (*experiments.CityRun, *experiments.CityRun) {
	b.Helper()
	benchOnce.Do(func() {
		benchMHTN = experiments.RunCity(experiments.Options{Scenario: api.Scenario{City: "manhattan", Seed: 42, Jitter: true}, Hours: 4})
		benchSF = experiments.RunCity(experiments.Options{Scenario: api.Scenario{City: "sf", Seed: 42, Jitter: true}, Hours: 4})
	})
	return benchMHTN, benchSF
}

func BenchmarkFig02VisibilityRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2VisibilityRadius(int64(i)+1, []int{12})
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig04TaxiValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4TaxiValidation(int64(i)+1, 600, 9, 11)
		if res.SupplyCapture <= 0 {
			b.Fatal("no capture")
		}
	}
}

func BenchmarkFig07CarLifespans(b *testing.B) {
	m, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := experiments.Fig7Lifespans(m, s)
		if len(groups) != 4 {
			b.Fatal("bad groups")
		}
	}
}

func BenchmarkFig08TimeSeries(b *testing.B) {
	m, _ := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := experiments.Fig8TimeSeries(m)
		_ = experiments.HourlyMean(fs.Surge)
	}
}

func BenchmarkFig09_10Heatmaps(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig9_10Heatmaps(s)
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkFig11EWTDistribution(b *testing.B) {
	m, _ := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := experiments.Fig11EWT(m)
		_ = c.At(4)
	}
}

func BenchmarkFig12SurgeDistribution(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := experiments.Fig12Surge(s)
		_ = c.At(1)
	}
}

func BenchmarkFig13SurgeDurations(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := experiments.Fig13SurgeDurations(s)
		_ = d.Client.Len()
	}
}

func BenchmarkFig14SurgeTimeline(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig14SurgeTimeline(s, 3600, 3600+1500)
	}
}

func BenchmarkFig15UpdateTiming(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := experiments.Fig15UpdateTiming(s)
		_ = t.API.Len()
	}
}

func BenchmarkFig16JitterMultipliers(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig16JitterMultipliers(s)
	}
}

func BenchmarkFig17JitterSimultaneity(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig17JitterSimultaneity(s)
	}
}

func BenchmarkFig18_19SurgeAreas(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := experiments.Fig18_19SurgeAreas(s)
		if a.Map == nil {
			b.Fatal("prober missing")
		}
	}
}

func BenchmarkFig20SupplyDemandCorrelation(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig20SupplyDemandCorrelation(s, 60)
	}
}

func BenchmarkFig21EWTCorrelation(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig21EWTCorrelation(s, 60)
	}
}

func BenchmarkTable1Forecasting(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1Forecasting(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig22Transitions(b *testing.B) {
	m, _ := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := experiments.Fig22Transitions(m)
		if len(cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkFig23AvoidanceFeasibility(b *testing.B) {
	m, _ := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := experiments.Fig23AvoidanceFeasibility(m)
		if len(cl) == 0 {
			b.Fatal("no clients")
		}
	}
}

func BenchmarkFig24AvoidanceSavings(b *testing.B) {
	_, s := benchRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig24AvoidanceSavings(s)
	}
}

// BenchmarkBackendDay measures raw simulation throughput: one simulated
// Manhattan hour per iteration (no measurement apparatus).
func BenchmarkBackendDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := sim.NewWorld(sim.Config{Profile: sim.Manhattan(), Seed: int64(i) + 1})
		e := surge.New(w, surge.Config{Params: sim.Manhattan().Surge, Seed: int64(i) + 1})
		for w.Now() < 3600 {
			w.Step()
			e.Step(w.Now())
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationGridVsLinear compares the uniform-grid 8-nearest query
// against a linear scan at the densities the backend serves.
func BenchmarkAblationGridVsLinear(b *testing.B) {
	const n = 600
	rng := rand.New(rand.NewSource(3))
	bounds := geo.NewRect(geo.Point{X: -2000, Y: -2000}, geo.Point{X: 2000, Y: 2000})
	grid := geo.NewSlotGrid(bounds, 250, 1)
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
		grid.Insert(0, int32(i), pts[i])
	}
	query := func() geo.Point {
		return geo.Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
	}
	b.Run("grid", func(b *testing.B) {
		var buf []geo.SlotNeighbor
		for i := 0; i < b.N; i++ {
			buf = grid.KNearestInto(0, query(), 8, buf)
		}
	})
	b.Run("linear", func(b *testing.B) {
		type cand struct {
			d  float64
			id int
		}
		for i := 0; i < b.N; i++ {
			q := query()
			best := make([]cand, 0, 9)
			for id, p := range pts {
				d := geo.Dist(q, p)
				// Insertion into a bounded sorted slice.
				pos := len(best)
				for pos > 0 && best[pos-1].d > d {
					pos--
				}
				if pos < 8 {
					if len(best) < 8 {
						best = append(best, cand{})
					}
					copy(best[pos+1:], best[pos:])
					best[pos] = cand{d: d, id: id}
				}
			}
		}
	})
}

// BenchmarkAblationJitter measures the overhead of the jitter bug path in
// the client stream.
func BenchmarkAblationJitter(b *testing.B) {
	for _, jitter := range []bool{false, true} {
		name := map[bool]string{false: "jitter=off", true: "jitter=on"}[jitter]
		b.Run(name, func(b *testing.B) {
			w := sim.NewWorld(sim.Config{Profile: sim.SanFrancisco(), Seed: 5})
			e := surge.New(w, surge.Config{Params: sim.SanFrancisco().Surge, Seed: 5, Jitter: jitter})
			for w.Now() < 3600 {
				w.Step()
				e.Step(w.Now())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.View().ClientMultiplier("bench-client", i%4, w.Now())
			}
		})
	}
}

// --- Fleet-scale sweep -------------------------------------------------
//
// The benchmarks below are the performance contract for the ROADMAP's
// "1M drivers stepping in real time" north-star. They step a bare world
// (no campaign, and no surge engine outside BenchmarkServiceStep) so the
// numbers isolate the simulation tick: struct-of-arrays movement, parallel
// spawn/dispatch, and the snapshot build. BENCH_step.json records the
// blessed numbers for these benchmarks (plus the pre-refactor AoS figures
// they replaced) and cmd/benchgate compares fresh runs against it in CI.

// fleetWorld builds a Manhattan world rescaled to seed ~n drivers at the
// midnight diurnal trough. The peak targets are the exact values the AoS
// baselines in BENCH_step.json were recorded with — keep them in sync.
func fleetWorld(b *testing.B, name string) *sim.World {
	b.Helper()
	p := sim.Manhattan()
	switch name {
	case "10k":
		p.PeakDrivers, p.PeakRequestsPerHour = 22200, 2600
	case "100k":
		p.PeakDrivers, p.PeakRequestsPerHour = 222000, 26000
	case "1M":
		p.PeakDrivers, p.PeakRequestsPerHour = 2220000, 260000
	default:
		b.Fatalf("unknown fleet size %q", name)
	}
	return sim.NewWorld(sim.Config{Profile: p, Seed: 1, Workers: 1})
}

// BenchmarkStep measures one serial world tick at three fleet sizes.
// Workers is pinned to 1 so the number tracks per-core throughput (the
// phase-parallel speedup is worker-invariant by construction and
// benchmarked separately in internal/sim). The road=10k variant steps
// the same ~10k-driver world on the street network (A* cruise and trip
// routes, road-ETA dispatch refinement, congestion feedback) — the gate
// holds it within 3× the euclidean fleet=10k tick.
func BenchmarkStep(b *testing.B) {
	for _, size := range []string{"10k", "100k", "1M"} {
		b.Run("fleet="+size, func(b *testing.B) {
			w := fleetWorld(b, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step()
			}
		})
	}
	b.Run("road=10k", func(b *testing.B) {
		p := sim.Manhattan()
		p.PeakDrivers, p.PeakRequestsPerHour = 22200, 2600
		p.RoadNetwork = true
		w := sim.NewWorld(sim.Config{Profile: p, Seed: 1, Workers: 1})
		// The first ticks plan initial cruise routes for the whole fleet;
		// pay that outside the timer so the number is the steady tick.
		for i := 0; i < 20; i++ {
			w.Step()
		}
		before := w.RoadWork()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Step()
		}
		b.StopTimer()
		reportRoadWork(b, before, w.RoadWork())
	})
}

// reportRoadWork reports a road benchmark's search work per op: routes
// planned, nodes settled and landmark potentials evaluated. They are exact
// counts of a seeded run, so cmd/benchgate gates the ones BENCH_step.json
// names with no slack (to the printed precision: go test prints a value of
// 1000 or more without decimals).
func reportRoadWork(b *testing.B, before, after road.Work) {
	n := float64(b.N)
	b.ReportMetric(float64(after.Routes-before.Routes)/n, "routes/op")
	b.ReportMetric(float64(after.Settled-before.Settled)/n, "settled/op")
	b.ReportMetric(float64(after.Potentials-before.Potentials)/n, "potentials/op")
}

// BenchmarkRoute measures one bidirectional A*+ALT query on the ~50k-node
// benchmark street grid (random endpoint pairs, free flow). The routing
// budget everything road-mode does per tick hangs off this number; the
// gate keeps it under a millisecond.
func BenchmarkRoute(b *testing.B) {
	benchRoadOnce.Do(func() { benchRoadGraph = road.BenchGraph() })
	g := benchRoadGraph
	rt := road.NewRouter(g)
	rng := rand.New(rand.NewSource(9))
	n := int32(g.NumNodes())
	// Warm the scratch buffers so steady-state queries are allocation-free.
	rt.Route(0, n-1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from, to := rng.Int31n(n), rng.Int31n(n)
		if _, _, ok := rt.Route(from, to, nil); !ok && from != to {
			b.Fatalf("no route %d -> %d", from, to)
		}
	}
}

// BenchmarkRouteCity measures the query street.cruise issues: a free-flow
// route of at most maxCruiseLeg (600 m) on the street graph of the
// Manhattan().Scale(72) world (754 nodes, 2,858 edges) that tick_road
// drives. Each leg starts at a seeded node and ends at the node nearest a
// point drawn uniformly from the 600 m disc around it, inside the region.
func BenchmarkRouteCity(b *testing.B) {
	p := sim.Manhattan().Scale(72)
	g := road.ForProfile(p.Name, p.Region).Graph
	rng := rand.New(rand.NewSource(17))
	n := int32(g.NumNodes())
	pairs := make([][2]int32, 1024)
	for i := range pairs {
		from := rng.Int31n(n)
		var to geo.Point
		for {
			to = g.NodePos(from).Add(geo.Point{X: (2*rng.Float64() - 1) * 600, Y: (2*rng.Float64() - 1) * 600})
			if geo.Dist(g.NodePos(from), to) <= 600 && p.Region.Contains(to) {
				break
			}
		}
		pairs[i] = [2]int32{from, g.NearestNode(to)}
	}
	rt := road.NewRouter(g)
	rt.Route(0, n-1, nil)
	before := rt.Work()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := pairs[i%len(pairs)]
		if _, _, ok := rt.Route(pr[0], pr[1], nil); !ok {
			b.Fatalf("no route %d -> %d", pr[0], pr[1])
		}
	}
	b.StopTimer()
	reportRoadWork(b, before, rt.Work())
}

// BenchmarkSnapshotEpoch measures the snapshot build: each iteration
// steps the world off the clock, then times only the build of the next
// epoch from the live idle grids.
func BenchmarkSnapshotEpoch(b *testing.B) {
	for _, size := range []string{"10k", "100k"} {
		b.Run("fleet="+size, func(b *testing.B) {
			w := fleetWorld(b, size)
			w.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.Step()
				b.StartTimer()
				_ = w.Snapshot()
			}
		})
	}
}

// BenchmarkServiceStep measures one api.Service.Step — world tick, surge
// engine, and the publish of the next epoch — on the BenchmarkStep worlds.
// Unlike BenchmarkSnapshotEpoch's bare builds, publish hands each build the
// buffers of the epoch retired two builds before, as uberd runs; two Steps
// before the timer put every timed build on that recycled path.
func BenchmarkServiceStep(b *testing.B) {
	for _, size := range []string{"10k", "100k"} {
		b.Run("fleet="+size, func(b *testing.B) {
			w := fleetWorld(b, size)
			s := api.NewService(w, surge.New(w, surge.Config{Params: w.Profile().Surge, Seed: 1}))
			s.Step()
			s.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkServiceStepPinged is the tick workloads' loop on the
// BenchmarkServiceStep worlds: one api.Service.Step, then 32 in-process
// PingClient at locations drawn over the service region, per op, after 16
// ops untimed. A ping copies the paths it answers with into its response
// and releases its epoch before it returns, so B/op is the Step's plus 32
// responses.
func BenchmarkServiceStepPinged(b *testing.B) {
	for _, size := range []string{"10k", "100k"} {
		b.Run("fleet="+size, func(b *testing.B) {
			w := fleetWorld(b, size)
			s := api.NewService(w, surge.New(w, surge.Config{Params: w.Profile().Surge, Seed: 1}))
			s.Register("bench-00")
			region, proj := w.Profile().Region, w.Projection()
			rng := rand.New(rand.NewSource(1))
			step := func() {
				s.Step()
				for i := 0; i < 32; i++ {
					loc := proj.ToLatLng(geo.Point{
						X: region.Min.X + rng.Float64()*region.Width(),
						Y: region.Min.Y + rng.Float64()*region.Height(),
					})
					if _, err := s.PingClient("bench-00", loc); err != nil {
						b.Fatal(err)
					}
				}
			}
			for i := 0; i < 16; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// BenchmarkPingServe measures what a shard's handler pays for one
// /pingClient — query parsing, auth, the pinned epoch and the body written
// from it into a pooled buffer — on a warm Manhattan backend with the jitter
// bug on. The ResponseWriter keeps its header map and discards the body, so
// net/http's connection state is not in the number.
func BenchmarkPingServe(b *testing.B) {
	s := api.Scenario{City: "manhattan", Seed: 1, Jitter: true}.Build()
	s.Register("bench-00")
	s.RunUntil(300)
	h := api.NewServer(s)
	loc := s.World().Profile().Origin
	req := httptest.NewRequest(http.MethodGet, "/pingClient?client=bench-00&lat="+
		strconv.FormatFloat(loc.Lat, 'g', -1, 64)+"&lng="+strconv.FormatFloat(loc.Lng, 'g', -1, 64), nil)
	w := &discardWriter{header: http.Header{}}
	h.ServeHTTP(w, req) // warms the body pool
	if w.status != http.StatusOK || w.n == 0 {
		b.Fatalf("/pingClient answered %d with %d bytes", w.status, w.n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

// BenchmarkCampaignRound measures one tick of the paper's campaign in
// process: api.Service.Step on a warm Manhattan backend, then a Round of the
// 43 GridLayout clients into a tsdb record.Writer. The campaign fills one
// response for every ping and lends it to the writer, which fills one
// stored row from it and lends that to the store; so B/op is the tick and
// the growth of the store's head, and no response.
func BenchmarkCampaignRound(b *testing.B) { benchCampaignRound(b, 0) }

// BenchmarkCampaignRoundWarm is BenchmarkCampaignRound after every series
// of the store has cut its first chunk. The store adds each row to open
// columns a cut left for reuse, so B/op is the tick and the commit: a
// writer or a store that kept one fresh row tree per ping shows here, where
// the few rounds of BenchmarkCampaignRound never reach a cut.
func BenchmarkCampaignRoundWarm(b *testing.B) { benchCampaignRound(b, 520) }

// benchCampaignRound times campaign rounds after warm untimed ones.
func benchCampaignRound(b *testing.B, warm int) {
	s := api.Scenario{City: "manhattan", Seed: 1}.Build()
	s.RunUntil(300)
	p := s.World().Profile()
	pts := client.GridLayout(p.MeasureRect, p.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(s, s.World().Projection(), pts)
	if err := camp.RegisterAll(s); err != nil {
		b.Fatal(err)
	}
	w, err := record.Create(record.StoreTSDB, filepath.Join(b.TempDir(), "c.tsdb"),
		record.Header{City: p.Name, Start: s.Now(), Clients: pts}, nil)
	if err != nil {
		b.Fatal(err)
	}
	camp.AddSink(w)
	for i := 0; i <= warm; i++ { // the first round sizes the campaign's response
		s.Step()
		camp.Round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
		camp.Round()
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if camp.Errors != 0 {
		b.Fatalf("%d pings failed", camp.Errors)
	}
}

// discardWriter is an http.ResponseWriter that records the status and the
// body's length.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) {
	w.n = len(p)
	return len(p), nil
}
