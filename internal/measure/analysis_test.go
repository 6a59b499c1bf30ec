package measure

import (
	"testing"

	"repro/internal/api"
	"repro/internal/geo"
)

func TestExtractJitterFindsPattern(t *testing.T) {
	changes := [][]SurgeChange{
		{
			{Time: 100, From: 1.0, To: 1.5}, // surge onset
			{Time: 400, From: 1.5, To: 1.0}, // jitter start (revert to prev)
			{Time: 425, From: 1.0, To: 1.5}, // jitter end (back to cur)
			{Time: 900, From: 1.5, To: 1.0}, // real drop
		},
	}
	events := ExtractJitter(changes)
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	e := events[0]
	if e.Start != 400 || e.End != 425 {
		t.Errorf("window = [%d,%d], want [400,425]", e.Start, e.End)
	}
	if e.During != 1.0 || e.Base != 1.5 {
		t.Errorf("During=%v Base=%v", e.During, e.Base)
	}
	if e.Duration() != 25 {
		t.Errorf("Duration = %d", e.Duration())
	}
}

func TestExtractJitterIgnoresSlowReversals(t *testing.T) {
	changes := [][]SurgeChange{
		{
			{Time: 100, From: 1.0, To: 1.5},
			{Time: 400, From: 1.5, To: 1.0}, // 5-minute-clock change
			{Time: 700, From: 1.0, To: 1.5}, // next interval: back up
		},
	}
	if events := ExtractJitter(changes); len(events) != 0 {
		t.Errorf("slow reversal misdetected as jitter: %+v", events)
	}
}

func TestSimultaneousJitter(t *testing.T) {
	events := []JitterEvent{
		{Client: 0, Start: 100, End: 125},
		{Client: 1, Start: 100, End: 130}, // same onset round as event 0
		{Client: 2, Start: 110, End: 140}, // overlaps 0/1 but different onset
		{Client: 3, Start: 500, End: 520}, // alone
	}
	counts := SimultaneousJitter(events)
	want := []int{2, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
			break
		}
	}
	// The same client jittering twice at one moment still counts as one
	// client.
	same := []JitterEvent{
		{Client: 7, Start: 100, End: 120},
		{Client: 7, Start: 101, End: 130},
	}
	for _, c := range SimultaneousJitter(same) {
		if c != 1 {
			t.Errorf("same-client events should count as 1, got %v", c)
		}
	}
	if got := SimultaneousJitter(nil); len(got) != 0 {
		t.Errorf("nil events: %v", got)
	}
}

func TestSurgeDurations(t *testing.T) {
	log := []SurgeChange{
		{Time: 300, From: 1.0, To: 1.5},
		{Time: 600, From: 1.5, To: 2.0}, // still surging
		{Time: 900, From: 2.0, To: 1.0}, // ends: 600 s episode
		{Time: 1500, From: 1.0, To: 1.3},
	}
	durs := SurgeDurations(log, 1.0, 0, 2000)
	if len(durs) != 2 {
		t.Fatalf("durations = %v, want 2 episodes", durs)
	}
	if durs[0] != 600 {
		t.Errorf("first episode = %v, want 600", durs[0])
	}
	if durs[1] != 500 { // truncated at end
		t.Errorf("second episode = %v, want 500", durs[1])
	}
}

func TestSurgeDurationsInitialSurge(t *testing.T) {
	log := []SurgeChange{{Time: 250, From: 1.4, To: 1.0}}
	durs := SurgeDurations(log, 1.4, 0, 1000)
	if len(durs) != 1 || durs[0] != 250 {
		t.Errorf("durs = %v, want [250]", durs)
	}
	// No changes, never surging.
	if durs := SurgeDurations(nil, 1.0, 0, 1000); len(durs) != 0 {
		t.Errorf("expected none, got %v", durs)
	}
	// No changes, surging throughout.
	if durs := SurgeDurations(nil, 2.0, 0, 1000); len(durs) != 1 || durs[0] != 1000 {
		t.Errorf("expected [1000], got %v", durs)
	}
}

func TestChangeMoments(t *testing.T) {
	log := []SurgeChange{
		{Time: 310}, {Time: 635}, {Time: 900},
	}
	moments := ChangeMoments(log)
	want := []float64{10, 35, 0}
	for i := range want {
		if moments[i] != want[i] {
			t.Errorf("moment[%d] = %v, want %v", i, moments[i], want[i])
		}
	}
}

func TestAPIProbe(t *testing.T) {
	svc := api.Scenario{City: "sf", Seed: 31, Jitter: true}.Build()
	svc.Register("api-probe")
	loc := svc.World().Projection().ToLatLng(geo.Point{X: 1000, Y: 1000})
	probe := NewAPIProbe(svc, "api-probe", loc)
	// Poll every 5 s for 2 simulated hours.
	for svc.Now() < 2*3600 {
		svc.Step()
		probe.Poll()
	}
	if probe.Errs != 0 {
		t.Errorf("probe errors: %d", probe.Errs)
	}
	if len(probe.Samples) == 0 {
		t.Fatal("no samples")
	}
	// The API stream never jitters: no change may revert within 60 s.
	if events := ExtractJitter([][]SurgeChange{probe.Log}); len(events) != 0 {
		t.Errorf("API stream contains jitter: %+v", events)
	}
	// All changes must land within the 5..40 s band of their interval
	// (the engine's API switch window).
	for _, m := range ChangeMoments(probe.Log) {
		if m < 5 || m > 45 {
			t.Errorf("API change at offset %v s, want within [5,45]", m)
		}
	}
}

func TestAPIProbeRateLimitSurfaces(t *testing.T) {
	svc := api.Scenario{City: "manhattan", Seed: 33}.Build()
	svc.Register("greedy")
	loc := svc.World().Projection().ToLatLng(geo.Point{})
	probe := NewAPIProbe(svc, "greedy", loc)
	// Poll 1200 times without advancing the hour: must hit the limit.
	for i := 0; i < 1200; i++ {
		probe.Poll()
	}
	if probe.Errs == 0 {
		t.Error("expected rate-limit errors")
	}
	if len(probe.Samples) > api.RateLimitPerHour {
		t.Errorf("samples = %d exceeds rate limit", len(probe.Samples))
	}
}
