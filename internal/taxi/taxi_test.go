package taxi

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

func smallTrace(t testing.TB) *Trace {
	t.Helper()
	return GenerateTrace(GenConfig{Seed: 1, Days: 1, Taxis: 400})
}

func TestSegmentPos(t *testing.T) {
	s := Segment{Start: 0, End: 100, From: geo.Point{X: 0}, To: geo.Point{X: 200}}
	if s.Pos(0) != (geo.Point{X: 0}) {
		t.Error("start pos wrong")
	}
	if s.Pos(50) != (geo.Point{X: 100}) {
		t.Error("mid pos wrong")
	}
	if s.Pos(100) != (geo.Point{X: 200}) {
		t.Error("end pos wrong")
	}
	if s.Pos(-10) != (geo.Point{X: 0}) || s.Pos(500) != (geo.Point{X: 200}) {
		t.Error("clamping wrong")
	}
	// Degenerate zero-length segment.
	z := Segment{Start: 5, End: 5, From: geo.Point{X: 7}, To: geo.Point{X: 9}}
	if z.Pos(5) != (geo.Point{X: 7}) {
		t.Error("degenerate segment should return From")
	}
}

func TestGenerateTraceStructure(t *testing.T) {
	tr := smallTrace(t)
	if len(tr.Sessions) == 0 {
		t.Fatal("no sessions generated")
	}
	for si, s := range tr.Sessions {
		prevEnd := int64(-1 << 60)
		for gi, seg := range s.Segments {
			if seg.End < seg.Start {
				t.Fatalf("session %d seg %d: End < Start", si, gi)
			}
			if seg.Start < prevEnd {
				t.Fatalf("session %d seg %d: overlaps previous", si, gi)
			}
			prevEnd = seg.End
			if !tr.Region.Contains(seg.From) || !tr.Region.Contains(seg.To) {
				t.Fatalf("session %d seg %d: endpoints outside region", si, gi)
			}
		}
		// Segments alternate: first is visible (idle).
		if len(s.Segments) > 0 && !s.Segments[0].Visible {
			t.Fatalf("session %d starts with a trip", si)
		}
	}
}

func TestGenerateTraceDeterministic(t *testing.T) {
	a := GenerateTrace(GenConfig{Seed: 9, Days: 1, Taxis: 50})
	b := GenerateTrace(GenConfig{Seed: 9, Days: 1, Taxis: 50})
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatal("session counts differ")
	}
	for i := range a.Sessions {
		if len(a.Sessions[i].Segments) != len(b.Sessions[i].Segments) {
			t.Fatalf("session %d segment counts differ", i)
		}
		for j := range a.Sessions[i].Segments {
			if a.Sessions[i].Segments[j] != b.Sessions[i].Segments[j] {
				t.Fatalf("session %d segment %d differs", i, j)
			}
		}
	}
}

func TestGroundTruthSane(t *testing.T) {
	tr := smallTrace(t)
	supply, deaths := tr.GroundTruth(0, 86400, 300)
	var supplyPeak, deathTotal float64
	for i := range supply.Values {
		if v := supply.Values[i]; !math.IsNaN(v) && v > supplyPeak {
			supplyPeak = v
		}
		if v := deaths.Values[i]; !math.IsNaN(v) {
			deathTotal += v
		}
	}
	if supplyPeak == 0 {
		t.Error("ground-truth supply always zero")
	}
	if deathTotal == 0 {
		t.Error("no ground-truth pickups")
	}
	// Taxis per interval cannot exceed the fleet.
	if supplyPeak > 400 {
		t.Errorf("supply peak %v exceeds fleet size", supplyPeak)
	}
}

func TestReplayerVisibilityAndIDs(t *testing.T) {
	tr := smallTrace(t)
	rep := NewReplayer(tr, 3)
	rep.RunUntil(12 * 3600)
	if rep.grid.Len(0) == 0 {
		t.Fatal("no taxis visible at noon")
	}
	loc := rep.Projection().ToLatLng(geo.Point{})
	var resp core.PingResponse
	if err := rep.PingInto("anyone", loc, &resp); err != nil {
		t.Fatal(err)
	}
	st := resp.Status(core.UberT)
	if st == nil {
		t.Fatal("no UberT status")
	}
	if len(st.Cars) == 0 || len(st.Cars) > core.MaxVisibleCars {
		t.Fatalf("cars = %d", len(st.Cars))
	}
	for _, c := range st.Cars {
		if c.ID == "" {
			t.Error("taxi with empty public ID")
		}
	}
	if st.Surge != 1 {
		t.Errorf("taxi surge = %v, want 1", st.Surge)
	}
	if st.EWTSeconds <= 0 {
		t.Errorf("EWT = %v", st.EWTSeconds)
	}
}

func TestReplayerIDRandomizedPerIdlePeriod(t *testing.T) {
	// Track one session across an idle->trip->idle transition and verify
	// the public ID changes.
	tr := smallTrace(t)
	var si int = -1
	for i, s := range tr.Sessions {
		if len(s.Segments) >= 3 && s.Segments[0].Visible && !s.Segments[1].Visible {
			si = i
			break
		}
	}
	if si < 0 {
		t.Skip("no suitable session")
	}
	segs := tr.Sessions[si].Segments
	rep := NewReplayer(tr, 3)
	rep.RunUntil(segs[0].Start + TickSeconds)
	id1 := rep.pubID[si]
	rep.RunUntil(segs[2].Start + 2*TickSeconds)
	id2 := rep.pubID[si]
	if id1 == "" || id2 == "" {
		t.Skip("session not visible at probe times")
	}
	if id1 == id2 {
		t.Error("public ID must be re-randomized per idle period")
	}
}

func TestEstimateEndpoints(t *testing.T) {
	tr := smallTrace(t)
	rep := NewReplayer(tr, 3)
	rep.RunUntil(8 * 3600)
	loc := rep.Projection().ToLatLng(geo.Point{})
	prices, err := rep.EstimatePrice("x", loc)
	if err != nil || len(prices) != 1 || prices[0].Surge != 1 {
		t.Errorf("prices = %+v, err = %v", prices, err)
	}
	times, err := rep.EstimateTime("x", loc)
	if err != nil || len(times) != 1 || times[0].EWTSeconds <= 0 {
		t.Errorf("times = %+v, err = %v", times, err)
	}
}

func TestValidationCaptureRates(t *testing.T) {
	if testing.Short() {
		t.Skip("validation campaign is slow")
	}
	tr := GenerateTrace(GenConfig{Seed: 7, Days: 1, Taxis: 1200})
	// Validate over 6 busy hours (8am-2pm) to keep runtime modest.
	res := Validate(tr, 7, 8*3600, 14*3600)
	// Paper: 97% of cars, 95% of deaths. Accept ≥85% here; the shape
	// being validated is "a probe grid recovers nearly all ground truth".
	if res.SupplyCapture < 0.85 || res.SupplyCapture > 1.1 {
		t.Errorf("supply capture = %.3f, want ≥ 0.85", res.SupplyCapture)
	}
	if res.DeathCapture < 0.75 || res.DeathCapture > 1.25 {
		t.Errorf("death capture = %.3f, want ~0.95", res.DeathCapture)
	}
	if res.SupplyCorrelation < 0.9 {
		t.Errorf("measured/truth supply correlation = %.3f, want > 0.9", res.SupplyCorrelation)
	}
}
