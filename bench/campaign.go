package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/tsdb"
)

var campaignStore = &workload{
	name: "campaign_store",
	why: "the paper's campaign in-process: 43 clients ping every tick into a tsdb store, then range reads of the same store; " +
		"client, record, tsdb and measure do the work, sim at 420 cars is negligible",
	unit:         "round",
	opsPerSecond: 162.5,
	setups:       25,
	setup:        setupCampaign,
}

const (
	windowRounds    = 120 // one replayed window: 600 simulated seconds
	campaignWarm    = 5   // times the common warm-up: a 420-car world warmed for 60 ticks sets up in 10 ms, too short to repeat
	roundsPerWindow = 200 // the read phase replays one window per this many written rounds
)

// campaignRig is the paper's apparatus at calibrated scale: Manhattan, 43
// grid clients, one ping round after every tick, a tsdb recorder as sink.
type campaignRig struct {
	p           params
	tr          *tracer
	profile     *sim.CityProfile
	svc         *api.Service
	camp        *client.Campaign
	pts         []geo.Point
	clientAreas []int
	w           *sim.World
	sink        *timingSink // traced rigs only
	rec         record.CampaignWriter
	dir         string
	stores      int
	r           *rng
}

func setupCampaign(p params, tr *tracer) (rig, error) {
	g := &campaignRig{p: p, tr: tr, profile: sim.Manhattan(), r: newRNG(p.seed, 0xca3b)}
	g.w, _, g.svc = newBackend(g.profile, worldSeed, simWorkers, campaignWarm*p.warm)
	g.pts = client.GridLayout(g.profile.MeasureRect, g.profile.ClientSpacing, client.NumClients)
	areas := g.profile.SurgeAreas()
	for _, pt := range g.pts {
		g.clientAreas = append(g.clientAreas, sim.AreaOf(areas, pt))
	}
	g.camp = client.NewCampaign(g.svc, g.w.Projection(), g.pts)
	if err := g.camp.RegisterAll(g.svc); err != nil {
		return nil, err
	}
	if p.traced {
		g.sink = &timingSink{tr: tr, parent: -1}
		g.camp.AddSink(g.sink)
	}
	if err := g.openStore(); err != nil {
		return nil, err
	}
	return g, nil
}

// openStore creates a fresh store for the next pass and makes it the
// campaign's sink.
func (g *campaignRig) openStore() error {
	g.stores++
	if g.dir != "" {
		_ = os.RemoveAll(g.dir)
	}
	g.dir = filepath.Join(g.p.outDir, fmt.Sprintf("campaign-%d-%d.tsdb", os.Getpid(), g.stores))
	if err := os.RemoveAll(g.dir); err != nil {
		return err
	}
	rec, err := record.Create(record.StoreTSDB, g.dir,
		record.Header{City: g.profile.Name, Start: g.svc.Now(), Clients: g.pts}, nil)
	if err != nil {
		return fmt.Errorf("create store: %w", err)
	}
	g.rec = rec
	if g.sink != nil {
		g.sink.next = rec
	} else {
		g.camp.Sinks = []client.Sink{rec}
	}
	return nil
}

func (g *campaignRig) digest() uint64 { return worldDigest(g.w) }

func (g *campaignRig) close() {
	if g.rec != nil {
		_ = g.rec.Close() // an abandoned set-up instance: nothing was written
	}
	_ = os.RemoveAll(g.dir)
}

// timingSink wraps the recorder in spans: what the campaign's round spends
// in record and tsdb rather than in pinging.
type timingSink struct {
	next   record.CampaignWriter
	tr     *tracer
	parent int32 // the round in flight
	id     string
}

func (s *timingSink) Observe(i int, pos geo.Point, resp *core.PingResponse) {
	sp := s.tr.open("record.observe", s.id, s.parent)
	s.next.Observe(i, pos, resp)
	s.tr.close(sp)
}

func (s *timingSink) ObserveGap(i int, pos geo.Point, lastSeen int64, err error) {
	s.next.ObserveGap(i, pos, lastSeen, err)
}

func (s *timingSink) EndRound(now int64) {
	sp := s.tr.open("record.end_round", s.id, s.parent)
	s.next.EndRound(now)
	s.tr.close(sp)
}

// window is one range read of the read phase.
type window struct{ from, to int64 }

// run is the whole timed phase: the write phase (op = one Step plus one
// Round: 43 pings, 43 appends, one commit), the store's final seal, then
// the read phase (alt = one window replayed into a fresh Dataset from the
// store re-opened each time, as analyze -from -to does).
func (g *campaignRig) run(rounds int, p *pass) []window {
	if g.rec == nil {
		if err := g.openStore(); err != nil {
			p.fail("%v", err)
			return nil
		}
	}
	tr := g.tr
	first := g.svc.Now() + client.PingPeriod
	errorsBefore := g.camp.Errors
	winRounds := min(windowRounds, rounds)
	// The windows are an even grid over the store, read in a seeded order:
	// which windows straddle a segment boundary (and so decode two segments)
	// does not depend on the seed, and allocation repeats across seeds.
	windows := make([]window, max(1, rounds/roundsPerWindow))
	stride := (rounds - winRounds) / len(windows)
	for i := range windows {
		from := first + client.PingPeriod*int64(i*stride)
		windows[i] = window{from, from + client.PingPeriod*int64(winRounds)}
	}
	for i := len(windows) - 1; i > 0; i-- {
		j := g.r.intn(i + 1)
		windows[i], windows[j] = windows[j], windows[i]
	}
	p.units = rounds
	p.op = make(latencies, 0, rounds)
	p.measure(func() {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			id := ""
			if tr.enabled() {
				id = strconv.Itoa(i)
			}
			root := tr.open("round", id, -1)
			s := tr.open("api.step", id, root)
			g.svc.Step()
			tr.close(s)
			s = tr.open("client.round", id, root)
			if g.sink != nil {
				g.sink.id, g.sink.parent = id, s
			}
			g.camp.Round()
			tr.close(s)
			tr.close(root)
			p.op = append(p.op, time.Since(t0))
		}
		if err := g.rec.Close(); err != nil {
			p.fail("close store: %v", err)
		}
		p.workWall = time.Since(t0)

		for _, win := range windows {
			t0 := time.Now()
			ds := measure.NewDataset(measure.Config{
				Profile: g.profile, Start: win.from, End: win.to, ClientAreas: g.clientAreas,
			}, len(g.pts))
			_, n, err := record.ReplayPathRange(g.dir, win.from, win.to, ds)
			ds.Close()
			p.alt = append(p.alt, time.Since(t0))
			if err != nil || n != int64(winRounds) {
				p.fail("window [%d,%d) replayed %d rounds, want %d: %v", win.from, win.to, n, winRounds, err)
			}
		}
	})
	p.attempted = rounds + len(windows)

	want := int64(rounds) * int64(len(g.pts))
	if rows, gaps := g.rec.Written(); rows != want || gaps != 0 || g.camp.Errors != errorsBefore {
		p.fail("store holds %d rows and %d gaps after %d ping errors, want %d rows", rows, gaps, g.camp.Errors-errorsBefore, want)
	}
	g.rec = nil
	if rep, err := tsdb.Verify(g.dir); err != nil || int64(rep.Rows)+int64(rep.WALRows) != want || rep.WALTorn {
		p.fail("tsdb.Verify: %d sealed + %d WAL rows, want %d: %v", rep.Rows, rep.WALRows, want, err)
	}
	return windows
}

func (g *campaignRig) timed(ops int, p *pass) { g.run(ops, p) }

func (g *campaignRig) traced(ops int, p *pass, tr *tracer, layers map[string]float64) {
	windows := g.run(ops, p)
	if len(windows) == 0 {
		return
	}
	st := analyze(tr.snapshot())
	layers["api.step_ms"] = st.p50("api.step", "", spanWhole)
	layers["client.round_ms"] = st.p50("client.round", "", spanWhole)
	layers["api.ping_us"] = st.p50("client.round", "", spanSelf) * 1e3 / float64(len(g.pts))
	layers["record.observe_us"] = st.p50("record.observe", "", spanWhole) * 1e3
	endRounds := st.pick("record.end_round", "", spanWhole)
	endP50 := endRounds.p50()
	layers["record.end_round_ms"] = ms(endP50)
	for _, d := range endRounds {
		if d > 10*endP50 {
			layers["record.seal_rounds"]++
		}
	}
	layers["trace.unexplained_ms"] = ms(p.op.p50()) - layers["api.step_ms"] - layers["client.round_ms"]

	// The read path, layer by layer, over the same windows.
	db, err := tsdb.Open(g.dir, tsdb.Options{ReadOnly: true})
	if err != nil {
		p.fail("reopen store: %v", err)
		return
	}
	var query, replay latencies
	windowRows := 0
	for _, win := range windows {
		t0 := time.Now()
		it := db.QueryAll(win.from, win.to)
		for it.Next() {
			windowRows++
		}
		query = append(query, time.Since(t0))
		if it.Err() != nil {
			p.fail("QueryAll [%d,%d): %v", win.from, win.to, it.Err())
		}
		t0 = time.Now()
		if _, _, err := record.ReplayPathRange(g.dir, win.from, win.to, nopSink{}); err != nil {
			p.fail("replay [%d,%d): %v", win.from, win.to, err)
		}
		replay = append(replay, time.Since(t0))
	}
	layers["tsdb.query_ms"] = ms(query.p50())
	layers["record.replay_self_ms"] = ms(replay.p50() - query.p50())
	layers["measure.observe_us"] = us(p.alt.p50()-replay.p50()) * float64(len(windows)) / float64(max(windowRows, 1))

	// The write path below record: the rows read back, re-ingested into a
	// fresh store through tsdb's own API, one commit per round.
	var rows []tsdb.Row
	it := db.QueryAll(record.MinTime, record.MaxTime)
	for it.Next() {
		rows = append(rows, *it.Row())
	}
	err = it.Err()
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil || len(rows) != ops*len(g.pts) {
		p.fail("read back %d rows, want %d: %v", len(rows), ops*len(g.pts), err)
		return
	}
	if err := g.reingest(rows, layers); err != nil {
		p.fail("re-ingest: %v", err)
	}
}

// reingest drives tsdb directly: append, commit, two explicit seals, a
// compaction, then a full verification of the result.
func (g *campaignRig) reingest(rows []tsdb.Row, layers map[string]float64) error {
	dir := g.dir + ".reingest"
	defer os.RemoveAll(dir)
	db, err := tsdb.Open(dir, tsdb.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	var appendTime time.Duration
	var commits, seals latencies
	seal := func() error {
		if st := db.Stats(); st.HeadRows > 0 {
			layers["tsdb.wal_bytes_per_row"] = float64(st.WALBytes) / float64(st.HeadRows)
		}
		t0 := time.Now()
		err := db.Seal()
		seals = append(seals, time.Since(t0))
		return err
	}
	for i := range rows {
		t0 := time.Now()
		err := db.Append(rows[i])
		appendTime += time.Since(t0)
		if err != nil {
			return err
		}
		if i+1 == len(rows) || rows[i+1].Time != rows[i].Time {
			t0 := time.Now()
			if err := db.Commit(); err != nil {
				return err
			}
			commits = append(commits, time.Since(t0))
		}
		if i+1 == len(rows)/2 || i+1 == len(rows) {
			if err := seal(); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	if err := db.Compact(); err != nil {
		return err
	}
	layers["tsdb.compact_ms"] = ms(time.Since(t0))
	layers["tsdb.append_us_per_row"] = us(appendTime) / float64(len(rows))
	layers["tsdb.commit_ms"] = ms(commits.p50())
	layers["tsdb.seal_ms"] = ms(seals.p50())
	st := db.Stats()
	layers["tsdb.bytes_per_row"] = float64(st.SegmentBytes) / float64(max(st.SegmentRows, 1))
	if err := db.Close(); err != nil {
		return err
	}
	rep, err := tsdb.Verify(dir)
	if err == nil && int(rep.Rows) != len(rows) {
		err = fmt.Errorf("verify: %d rows, want %d", rep.Rows, len(rows))
	}
	return err
}

// nopSink replays a window without aggregating it.
type nopSink struct{}

func (nopSink) Observe(int, geo.Point, *core.PingResponse) {}
func (nopSink) EndRound(int64)                             {}
