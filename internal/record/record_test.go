package record

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
)

// runRecordedCampaign runs a 1-hour campaign writing both a live dataset
// and a store, then replays the store into a second dataset.
func runRecordedCampaign(t *testing.T) (live, replayed *measure.Dataset, hdr Header, rounds int64) {
	t.Helper()
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 77, Jitter: true}.Build()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}
	mkDataset := func() *measure.Dataset {
		return measure.NewDataset(measure.Config{
			Profile: profile, Start: 0, End: 3600, ClientAreas: clientAreas,
		}, len(pts))
	}

	live = mkDataset()
	camp.AddSink(live)

	dir := filepath.Join(t.TempDir(), "c.tsdb")
	w, err := Create(StoreTSDB, dir, Header{City: profile.Name, Start: 0, Clients: pts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp.AddSink(w)
	camp.RunSim(svc, 3600)
	live.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rows, _ := w.Written(); rows == 0 {
		t.Fatal("nothing recorded")
	}

	replayed = mkDataset()
	hdr, rounds, err = ReplayPathRange(dir, MinTime, MaxTime, replayed)
	if err != nil {
		t.Fatal(err)
	}
	replayed.Close()
	return live, replayed, hdr, rounds
}

func TestRoundTripMatchesLiveDataset(t *testing.T) {
	live, replayed, hdr, rounds := runRecordedCampaign(t)

	if hdr.City != "manhattan" || len(hdr.Clients) != client.NumClients {
		t.Errorf("header = %+v", hdr)
	}
	if rounds != 720 {
		t.Errorf("rounds = %d, want 720", rounds)
	}
	// The replayed dataset must match the live one on every series.
	for _, vt := range measure.TrackedTypes {
		a, b := live.SupplySeries(vt), replayed.SupplySeries(vt)
		for i := range a.Values {
			if !eqNaN(a.Values[i], b.Values[i]) {
				t.Fatalf("%v supply[%d]: %v vs %v", vt, i, a.Values[i], b.Values[i])
			}
		}
		da, db := live.DeathSeries(vt), replayed.DeathSeries(vt)
		for i := range da.Values {
			if !eqNaN(da.Values[i], db.Values[i]) {
				t.Fatalf("%v deaths[%d]: %v vs %v", vt, i, da.Values[i], db.Values[i])
			}
		}
	}
	if len(live.SurgeSamples) != len(replayed.SurgeSamples) {
		t.Fatalf("surge samples: %d vs %d", len(live.SurgeSamples), len(replayed.SurgeSamples))
	}
	for i := range live.SurgeSamples {
		if live.SurgeSamples[i] != replayed.SurgeSamples[i] {
			t.Fatalf("surge sample %d differs", i)
		}
	}
	// Jitter events survive the round trip (change logs identical).
	le := measure.ExtractJitter(live.Changes)
	re := measure.ExtractJitter(replayed.Changes)
	if len(le) != len(re) {
		t.Errorf("jitter events: %d vs %d", len(le), len(re))
	}
}

func eqNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

func TestReplayCorruptInput(t *testing.T) {
	tmp := t.TempDir()
	// Neither a store nor gzip: converting it fails.
	garbage := filepath.Join(tmp, "garbage")
	if err := os.WriteFile(garbage, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Convert(garbage, filepath.Join(tmp, "out.tsdb"), nil); err == nil {
		t.Error("garbage input should error")
	}
	// An empty store: header only, zero rounds.
	dir := filepath.Join(tmp, "empty.tsdb")
	w, err := Create(StoreTSDB, dir, Header{City: "x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, rounds, err := ReplayPathRange(dir, MinTime, MaxTime)
	if err != nil {
		t.Fatalf("empty store should replay cleanly: %v", err)
	}
	if hdr.City != "x" || rounds != 0 {
		t.Errorf("hdr=%+v rounds=%d", hdr, rounds)
	}
}

func TestWriterPreservesUnknownTypesError(t *testing.T) {
	// A record with an unknown vehicle type fails replay loudly rather
	// than being silently dropped.
	dir := filepath.Join(t.TempDir(), "c.tsdb")
	w, err := Create(StoreTSDB, dir, Header{City: "x", Clients: []geo.Point{{}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Observe(0, geo.Point{}, &core.PingResponse{
		Time:  5,
		Types: []core.TypeStatus{{TypeName: "uberWARP", Surge: 1}},
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReplayPathRange(dir, MinTime, MaxTime, discardSink{}); err == nil {
		t.Error("unknown type should fail replay")
	}
}

type discardSink struct{}

func (discardSink) Observe(int, geo.Point, *core.PingResponse) {}
func (discardSink) EndRound(int64)                             {}

// flakyPinger fails a fraction of pings so the recording contains gap rows.
type flakyPinger struct {
	core.Service
	rng      *rand.Rand
	failProb float64
}

func (f *flakyPinger) PingInto(clientID string, loc geo.LatLng, dst *core.PingResponse) error {
	if f.rng.Float64() < f.failProb {
		return errors.New("simulated transport failure")
	}
	return f.Service.PingInto(clientID, loc, dst)
}

// TestRoundTripPreservesGaps runs a lossy campaign and checks the replayed
// dataset sees the same explicit gaps — and therefore the same death
// series — as the live one. This is the v2 format's reason to exist.
func TestRoundTripPreservesGaps(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 78}.Build()
	flaky := &flakyPinger{Service: svc, rng: rand.New(rand.NewSource(9)), failProb: 0.1}
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(flaky, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	mkDataset := func() *measure.Dataset {
		return measure.NewDataset(measure.Config{
			Profile: profile, Start: 0, End: 1800,
		}, len(pts))
	}
	live := mkDataset()
	camp.AddSink(live)

	dir := filepath.Join(t.TempDir(), "c.tsdb")
	w, err := Create(StoreTSDB, dir, Header{City: profile.Name, Start: 0, Clients: pts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp.AddSink(w)
	camp.RunSim(svc, 1800)
	live.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, gaps := w.Written()
	if camp.Errors == 0 || gaps == 0 {
		t.Fatalf("campaign errors = %d, recorded gaps = %d; want both > 0", camp.Errors, gaps)
	}
	if gaps != camp.Errors {
		t.Errorf("recorded gaps = %d, campaign errors = %d", gaps, camp.Errors)
	}

	replayed := mkDataset()
	if _, _, err := ReplayPathRange(dir, MinTime, MaxTime, replayed); err != nil {
		t.Fatal(err)
	}
	replayed.Close()

	if replayed.Gaps != live.Gaps {
		t.Errorf("replayed gaps = %d, live = %d", replayed.Gaps, live.Gaps)
	}
	for i := range live.ClientGaps {
		if live.ClientGaps[i] != replayed.ClientGaps[i] {
			t.Fatalf("client %d gaps: live %d, replayed %d", i, live.ClientGaps[i], replayed.ClientGaps[i])
		}
	}
	// Gap-aware death detection must agree between live and replay: blind
	// misses suppressed identically.
	a, b := live.DeathSeries(core.UberX), replayed.DeathSeries(core.UberX)
	for i := range a.Values {
		if !eqNaN(a.Values[i], b.Values[i]) {
			t.Fatalf("deaths[%d]: live %v, replayed %v", i, a.Values[i], b.Values[i])
		}
	}
}
