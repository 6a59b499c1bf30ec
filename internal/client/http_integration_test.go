package client

import (
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// TestCampaignOverHTTPMatchesInProcess runs the same rounds through the
// in-process service and through the HTTP wire and verifies the two
// campaigns observe identical data — the HTTP layer must be a pure shell.
func TestCampaignOverHTTPMatchesInProcess(t *testing.T) {
	profile := sim.Manhattan()
	// Two identical backends (the campaign's queries don't perturb the
	// simulation, but sharing one backend would interleave rate-limit
	// state; identical seeds keep the worlds in lockstep).
	svcA := api.Scenario{City: profile.Name, Seed: 12345, Jitter: true}.Build()
	svcB := api.Scenario{City: profile.Name, Seed: 12345, Jitter: true}.Build()
	ts := httptest.NewServer(api.NewServer(svcB))
	defer ts.Close()
	remote := api.NewRemote(ts.URL, ts.Client())

	pts := GridLayout(profile.MeasureRect, profile.ClientSpacing, 10)
	inproc := NewCampaign(svcA, svcA.World().Projection(), pts)
	inproc.RegisterAll(svcA)
	wire := NewCampaign(remote, geo.NewProjection(profile.Origin), pts)
	for _, cl := range wire.Clients {
		if err := remote.Register(cl.ID); err != nil {
			t.Fatal(err)
		}
	}

	recA := &recordingSink{}
	recB := &recordingSink{}
	inproc.AddSink(recA)
	wire.AddSink(recB)

	for round := 0; round < 24; round++ {
		svcA.Step()
		svcB.Step()
		inproc.Round()
		wire.Round()
	}
	if inproc.Errors != 0 || wire.Errors != 0 {
		t.Fatalf("errors: inproc %d, wire %d", inproc.Errors, wire.Errors)
	}
	if len(recA.rows) != len(recB.rows) {
		t.Fatalf("row counts differ: %d vs %d", len(recA.rows), len(recB.rows))
	}
	for i := range recA.rows {
		a, b := recA.rows[i], recB.rows[i]
		// The wire carries coordinates at 7 decimal places (~1 cm), so
		// EWTs can differ by microseconds; everything else is exact.
		ewtClose := a.ewt-b.ewt < 0.01 && b.ewt-a.ewt < 0.01
		a.ewt, b.ewt = 0, 0
		if a != b || !ewtClose {
			t.Fatalf("row %d differs:\n in-process: %+v\n wire:       %+v",
				i, recA.rows[i], recB.rows[i])
		}
	}
}

// recordingSink flattens observations into comparable rows.
type recordingSink struct {
	rows []obsRow
}

type obsRow struct {
	client  int
	time    int64
	surge   float64
	ewt     float64
	nCars   int
	firstID string
}

func (r *recordingSink) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	st := resp.Status(core.UberX)
	row := obsRow{client: clientIdx, time: resp.Time}
	if st != nil {
		row.surge = st.Surge
		row.ewt = st.EWTSeconds
		row.nCars = len(st.Cars)
		if len(st.Cars) > 0 {
			row.firstID = st.Cars[0].ID
		}
	}
	r.rows = append(r.rows, row)
}

func (r *recordingSink) EndRound(now int64) {}
