package record

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// ingestRowCollector records every replayed observation as a canonical string
// per round. Rows are keyed by series index: the bus delivers pings in
// publish order, so the live ingester numbers series in campaign order,
// as the batch store does. Positions are ignored (the live header
// roundtrips them through LatLng so the plane points differ in the last
// ulps; the rows themselves carry no positions).
type ingestRowCollector struct {
	rows map[int64][]string
}

func (rc *ingestRowCollector) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	for i := range resp.Types {
		ts := &resp.Types[i]
		s := fmt.Sprintf("%d|%s|%g|%g", clientIdx, ts.TypeName, ts.Surge, ts.EWTSeconds)
		for _, c := range ts.Cars {
			s += fmt.Sprintf("|%s@%.9f,%.9f", c.ID, c.Pos.Lat, c.Pos.Lng)
		}
		rc.rows[resp.Time] = append(rc.rows[resp.Time], s)
	}
}

func (rc *ingestRowCollector) EndRound(int64) {}

func collectStore(t *testing.T, path string) (map[int64][]string, int64, Header) {
	t.Helper()
	db, hdr, err := Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer db.Close()
	rc := &ingestRowCollector{rows: make(map[int64][]string)}
	rounds, err := Replay(db, hdr, MinTime, MaxTime, rc)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	for _, rows := range rc.rows {
		sort.Strings(rows)
	}
	return rc.rows, rounds, hdr
}

// TestLiveIngestMatchesBatchStore runs one campaign writing the batch
// tsdb store (the poll path measure uses) while publishing the same
// served responses over the bus, ingests the bus topic into a second
// store — with a mid-stream ingester restart to exercise offset resume
// and at-least-once dedup — and asserts both stores replay identical
// per-round row sets.
func TestLiveIngestMatchesBatchStore(t *testing.T) {
	profile := sim.Manhattan()
	svc := api.Scenario{City: profile.Name, Seed: 21, Jitter: true}.Build()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, 12)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	if err := camp.RegisterAll(svc); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	batchDir := filepath.Join(dir, "batch")
	liveDir := filepath.Join(dir, "live")
	ids := make([]string, len(pts))
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%02d", i)
	}
	hdr := Header{City: profile.Name, Start: 0, Clients: pts, ClientIDs: ids}
	batch, err := Create(StoreTSDB, batchDir, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	camp.AddSink(batch)

	br, err := bus.Open(filepath.Join(dir, "bus"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	topic, err := br.Topic(bus.TopicPings)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetEventSinks(func(ev bus.Event) {
		if err := topic.Publish(ev); err != nil {
			t.Errorf("publish: %v", err)
		}
	}, nil)

	camp.RunSim(svc, 1800)
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	ingestHdr := Header{City: profile.Name, Start: 0}
	proj := svc.World().Projection()

	// First ingester session: stop mid-stream without committing the
	// tail, as a crash would.
	cons, err := topic.Subscribe("ingest")
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewLiveIngester(liveDir, ingestHdr, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 1000; n++ {
		ev, ok := cons.TryNext()
		if !ok {
			t.Fatal("bus drained before the restart point; lower the cutoff")
		}
		done, err := ing.Handle(ev)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if err := cons.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	cons.Close()

	// Second session: resumes from the last committed round and must
	// skip the redelivered tail of the first.
	cons2, err := topic.Subscribe("ingest")
	if err != nil {
		t.Fatal(err)
	}
	ing2, err := NewLiveIngester(liveDir, ingestHdr, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, ok := cons2.TryNext()
		if !ok {
			break
		}
		done, err := ing2.Handle(ev)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if err := cons2.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, dups, _ := ing2.Stats()
	if dups == 0 {
		t.Error("restart redelivered nothing: the at-least-once dedup path went unexercised")
	}
	if err := ing2.Close(); err != nil {
		t.Fatal(err)
	}
	cons2.Close()

	batchRows, batchRounds, _ := collectStore(t, batchDir)
	liveRows, liveRounds, liveHdr := collectStore(t, liveDir)
	if batchRounds == 0 {
		t.Fatal("batch store replayed zero rounds")
	}
	if batchRounds != liveRounds {
		t.Errorf("rounds: batch %d, live %d", batchRounds, liveRounds)
	}
	if len(batchRows) != len(liveRows) {
		t.Fatalf("round timestamps: batch %d, live %d", len(batchRows), len(liveRows))
	}
	for tm, want := range batchRows {
		got, ok := liveRows[tm]
		if !ok {
			t.Fatalf("round %d missing from live store", tm)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: batch %d rows, live %d rows", tm, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d row %d differs:\n  batch: %s\n  live:  %s", tm, i, want[i], got[i])
			}
		}
	}

	// The live header must name the campaign's clients in campaign order,
	// with each series' stored position matching that client's grid point.
	if !slices.Equal(liveHdr.ClientIDs, ids) {
		t.Fatalf("live header client IDs %v, want campaign order %v", liveHdr.ClientIDs, ids)
	}
	for i, want := range pts {
		got := liveHdr.Clients[i]
		if dx, dy := got.X-want.X, got.Y-want.Y; dx*dx+dy*dy > 1e-6 {
			t.Errorf("series %d (%s) stored at %v, campaign placed it at %v", i, ids[i], got, want)
		}
	}
}
