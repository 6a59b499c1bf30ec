package client

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/geo"
)

// flakyService wraps a core.Service and fails a fraction of pings, the way
// a real measurement campaign loses requests to transport errors.
type flakyService struct {
	core.Service
	rng      *rand.Rand
	failProb float64
	failures int
}

var errFlaky = errors.New("transient transport failure")

func (f *flakyService) PingClient(clientID string, loc geo.LatLng) (*core.PingResponse, error) {
	if f.rng.Float64() < f.failProb {
		f.failures++
		return nil, errFlaky
	}
	return f.Service.PingClient(clientID, loc)
}

func TestCampaignSurvivesTransportFailures(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 31}.Build()
	flaky := &flakyService{Service: svc, rng: rand.New(rand.NewSource(1)), failProb: 0.2}
	p := svc.World().Profile()
	pts := GridLayout(p.MeasureRect, p.ClientSpacing, NumClients)
	camp := NewCampaign(flaky, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	sink := &countingSink{}
	camp.AddSink(sink)
	camp.RunSim(svc, 600)

	if camp.Errors == 0 {
		t.Fatal("flaky service produced no campaign errors")
	}
	if int64(flaky.failures) != camp.Errors {
		t.Errorf("failures %d != campaign errors %d", flaky.failures, camp.Errors)
	}
	// Successful observations still flowed to the sinks.
	want := int(camp.Rounds)*NumClients - int(camp.Errors)
	if sink.observations != want {
		t.Errorf("observations = %d, want %d", sink.observations, want)
	}
	// Rounds still completed.
	if camp.Rounds != 120 {
		t.Errorf("rounds = %d, want 120", camp.Rounds)
	}
}

func TestCampaignAllPingsFail(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 31}.Build()
	flaky := &flakyService{Service: svc, rng: rand.New(rand.NewSource(1)), failProb: 1.0}
	pts := GridLayout(svc.World().Profile().MeasureRect, 280, 5)
	camp := NewCampaign(flaky, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	sink := &countingSink{}
	camp.AddSink(sink)
	camp.RunSim(svc, 60)
	if sink.observations != 0 {
		t.Errorf("observations = %d, want 0", sink.observations)
	}
	// EndRound still fires so sinks can account for the silent round.
	if sink.rounds == 0 {
		t.Error("EndRound never fired")
	}
}

func TestCampaignUnregisteredClientsCountErrors(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 31}.Build()
	pts := GridLayout(svc.World().Profile().MeasureRect, 280, 3)
	camp := NewCampaign(svc, svc.World().Projection(), pts)
	// Deliberately skip RegisterAll.
	camp.Round()
	if camp.Errors != 3 {
		t.Errorf("errors = %d, want 3 (unregistered accounts)", camp.Errors)
	}
}

// gapSink records every reported gap.
type gapSink struct {
	countingSink
	gaps     int
	lastSeen []int64
	errs     []error
}

func (g *gapSink) ObserveGap(clientIdx int, pos geo.Point, lastSeen int64, err error) {
	g.gaps++
	g.lastSeen = append(g.lastSeen, lastSeen)
	g.errs = append(g.errs, err)
}

func TestCampaignReportsGapsToGapSinks(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 31}.Build()
	flaky := &flakyService{Service: svc, rng: rand.New(rand.NewSource(2)), failProb: 0.2}
	p := svc.World().Profile()
	pts := GridLayout(p.MeasureRect, p.ClientSpacing, NumClients)
	camp := NewCampaign(flaky, svc.World().Projection(), pts)
	camp.RegisterAll(svc)

	sink := &gapSink{}
	camp.AddSink(sink)
	camp.RunSim(svc, 600)

	if camp.Errors == 0 {
		t.Fatal("flaky service produced no errors")
	}
	// Every error is reported as an explicit gap, so the sink can account
	// for the full expected observation count.
	if int64(sink.gaps) != camp.Errors {
		t.Errorf("gaps = %d, campaign errors = %d; every error must be a gap", sink.gaps, camp.Errors)
	}
	if int64(sink.observations+sink.gaps) != camp.Rounds*int64(len(camp.Clients)) {
		t.Errorf("observations (%d) + gaps (%d) != rounds × clients (%d)",
			sink.observations, sink.gaps, camp.Rounds*int64(len(camp.Clients)))
	}
	for i, e := range sink.errs {
		if !errors.Is(e, errFlaky) {
			t.Fatalf("gap %d carried err %v, want the ping error", i, e)
		}
	}
	// lastSeen is the campaign clock: it never runs backwards.
	for i := 1; i < len(sink.lastSeen); i++ {
		if sink.lastSeen[i] < sink.lastSeen[i-1] {
			t.Fatalf("gap lastSeen went backwards: %d then %d", sink.lastSeen[i-1], sink.lastSeen[i])
		}
	}
}

// plainSink does not implement GapSink; a campaign with failures must not
// treat that as an error (gap reporting is opt-in).
func TestCampaignToleratesNonGapSinks(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 31}.Build()
	flaky := &flakyService{Service: svc, rng: rand.New(rand.NewSource(3)), failProb: 0.5}
	pts := GridLayout(svc.World().Profile().MeasureRect, 280, 5)
	camp := NewCampaign(flaky, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	camp.AddSink(&countingSink{})
	camp.RunSim(svc, 60) // must not panic
	if camp.Errors == 0 {
		t.Fatal("flaky service produced no errors")
	}
}
