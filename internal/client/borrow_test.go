package client

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// pointerSink records every response pointer it is lent.
type pointerSink struct {
	seen map[*core.PingResponse]int
}

func (s *pointerSink) Observe(_ int, _ geo.Point, resp *core.PingResponse) {
	if s.seen == nil {
		s.seen = map[*core.PingResponse]int{}
	}
	s.seen[resp]++
}
func (s *pointerSink) EndRound(int64) {}

type nopSink struct{}

func (nopSink) Observe(int, geo.Point, *core.PingResponse) {}
func (nopSink) EndRound(int64)                             {}

// TestCampaignLendsOneResponse: every observation of every round is the
// campaign's one response, lent again and again.
func TestCampaignLendsOneResponse(t *testing.T) {
	svc, camp := newCampaignBackend(t)
	sink := &pointerSink{}
	camp.AddSink(sink)
	camp.RunSim(svc, 60)
	if len(sink.seen) != 1 {
		t.Fatalf("sink was lent %d distinct responses over %d rounds, want 1", len(sink.seen), camp.Rounds)
	}
	for _, n := range sink.seen {
		if want := int(camp.Rounds) * NumClients; n != want {
			t.Errorf("one response lent %d times, want %d", n, want)
		}
	}
}

// TestCampaignRoundAllocs: a warm in-process round of the paper's 43
// clients fills the campaign's response in place and allocates nothing.
func TestCampaignRoundAllocs(t *testing.T) {
	svc, camp := newCampaignBackend(t)
	camp.AddSink(nopSink{})
	camp.RunSim(svc, 60)
	if n := testing.AllocsPerRun(50, camp.Round); n != 0 {
		t.Errorf("warm Round of %d clients allocates %v objects, want 0", len(camp.Clients), n)
	}
}

// perClientService answers every client with a different car, so no two
// clients ever agree.
type perClientService struct {
	core.Service
	now int64
}

func (s *perClientService) PingInto(clientID string, _ geo.LatLng, dst *core.PingResponse) error {
	*dst = core.PingResponse{Time: s.now, Types: []core.TypeStatus{{
		Type: core.UberX, TypeName: core.UberX.String(), Surge: 1,
		Cars: []core.CarView{{ID: "near-" + clientID}},
	}}}
	return nil
}

func (s *perClientService) Step()                 { s.now += PingPeriod }
func (s *perClientService) Now() int64            { return s.now }
func (s *perClientService) Register(string) error { return nil }

// TestCheckDeterminismSeesDifferentAnswers: the reference answer and each
// later client's live in different responses, so answers that differ are
// seen to differ (filled into one, they would always compare equal).
func TestCheckDeterminismSeesDifferentAnswers(t *testing.T) {
	svc := &perClientService{}
	ok, err := CheckDeterminism(svc, svc, svc, geo.LatLng{}, 3, 3*PingPeriod)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("clients with different answers judged deterministic")
	}
}
