package transition

import (
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

func TestStateString(t *testing.T) {
	want := []string{"New", "Old", "In", "Out", "Dying"}
	for i, w := range want {
		if got := State(i).String(); got != w {
			t.Errorf("State(%d) = %q, want %q", i, got, w)
		}
	}
	if State(99).String() != "?" {
		t.Error("unknown state should be ?")
	}
}

// fakeResponse builds a ping response placing cars (by id) at positions.
func fakeResponse(now int64, cars map[string]geo.Point, proj *geo.Projection) *core.PingResponse {
	st := core.TypeStatus{Type: core.UberX, TypeName: "uberX", Surge: 1}
	for id, p := range cars {
		st.Cars = append(st.Cars, core.CarView{ID: id, Pos: proj.ToLatLng(p)})
	}
	return &core.PingResponse{Time: now, Types: []core.TypeStatus{st}}
}

func TestClassification(t *testing.T) {
	profile := sim.Manhattan()
	areas := profile.SurgeAreas()
	proj := geo.NewProjection(profile.Origin)
	// One client per area so surge medians resolve.
	var clientPos []geo.Point
	for _, a := range areas {
		clientPos = append(clientPos, a.Centroid())
	}
	s := NewSink(profile, clientPos)

	// Pick representative points in areas 0 and 1.
	p0 := areas[0].Centroid()
	p1 := areas[1].Centroid()

	// Interval 1 (t in [300,600)): cars A (area 0), B (area 0), C (area 1).
	s.Observe(0, clientPos[0], fakeResponse(305, map[string]geo.Point{"A": p0, "B": p0, "C": p1}, proj))
	s.EndRound(305)
	// Interval 2: A stays in 0 (Old), B moves to 1 (Out of 0, In to 1),
	// C gone (Dying from 1), D appears in 0 (New).
	s.Observe(0, clientPos[0], fakeResponse(605, map[string]geo.Point{"A": p0, "B": p1, "D": p0}, proj))
	// Crossing into the next interval flushes the previous one and
	// classifies the transition between the two snapshots.
	s.EndRound(605)

	// All areas had equal surge (all 1) in the preceding interval.
	if got := s.Share(CondEqual, StateOld, 0); got != 1 {
		t.Errorf("Old share area0 = %v, want 1 (A is the only Old car)", got)
	}
	if got := s.Share(CondEqual, StateNew, 0); got != 1 {
		t.Errorf("New share area0 = %v, want 1 (D)", got)
	}
	if got := s.Share(CondEqual, StateIn, 1); got != 1 {
		t.Errorf("In share area1 = %v, want 1 (B)", got)
	}
	if got := s.Share(CondEqual, StateOut, 0); got != 1 {
		t.Errorf("Out share area0 = %v, want 1 (B left 0)", got)
	}
	if got := s.Share(CondEqual, StateDying, 1); got != 1 {
		t.Errorf("Dying share area1 = %v, want 1 (C)", got)
	}
	if got := s.Share(CondEqual, StateDying, 0); got != 0 {
		t.Errorf("Dying share area0 = %v, want 0", got)
	}
	if s.Intervals(CondEqual, 0) == 0 {
		t.Error("no equal-surge intervals recorded")
	}
}

func TestConditionOf(t *testing.T) {
	prev := []float64{1, 1, 1, 1}
	for a := 0; a < 4; a++ {
		if got := ConditionOf(prev, a); got != CondEqual {
			t.Errorf("area %d: cond = %v, want equal", a, got)
		}
	}
	prev = []float64{1.5, 1, 1, 1.2}
	if got := ConditionOf(prev, 0); got != CondSurging {
		t.Errorf("area 0: cond = %v, want surging (1.5 ≥ all+0.2)", got)
	}
	if got := ConditionOf(prev, 3); got != -1 {
		t.Errorf("area 3: cond = %v, want -1 (not 0.2 above area 0)", got)
	}
	if got := ConditionOf(prev, 1); got != -1 {
		t.Errorf("area 1: cond = %v, want -1", got)
	}
	// Exactly 0.2 above all: surging.
	prev = []float64{1.2, 1.0, 1.0, 1.0}
	if got := ConditionOf(prev, 0); got != CondSurging {
		t.Errorf("margin boundary: cond = %v, want surging", got)
	}
}

func TestEndToEndSurgeEffects(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	// Run SF (surges often) with the real campaign and check the paper's
	// directional findings: the share of new cars appearing in an area
	// rises when that area surges above its neighbors, and dying falls.
	profile := sim.SanFrancisco()
	svc := api.Scenario{City: profile.Name, Seed: 19}.Build()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	sink := NewSink(profile, pts)
	camp.AddSink(sink)
	camp.RunSim(svc, 16*3600)
	sink.Close()

	surgingSamples := 0
	newUp, dyingDown, checked := 0, 0, 0
	for a := 0; a < sink.NumAreas(); a++ {
		if sink.Intervals(CondSurging, a) < 5 || sink.Intervals(CondEqual, a) < 5 {
			continue
		}
		surgingSamples += sink.Intervals(CondSurging, a)
		checked++
		if sink.Share(CondSurging, StateNew, a) > sink.Share(CondEqual, StateNew, a) {
			newUp++
		}
		if sink.Share(CondSurging, StateDying, a) < sink.Share(CondEqual, StateDying, a) {
			dyingDown++
		}
	}
	if checked == 0 {
		t.Skip("no area had enough intervals under both conditions")
	}
	// Directional check on the majority of comparable areas.
	if newUp*2 < checked {
		t.Errorf("New share rose in only %d/%d areas under surge", newUp, checked)
	}
	if dyingDown*2 < checked {
		t.Errorf("Dying share fell in only %d/%d areas under surge", dyingDown, checked)
	}
}
