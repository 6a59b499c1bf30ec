package strategy

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/geo"
	"repro/internal/measure"
)

func TestWaitOutSyntheticLog(t *testing.T) {
	// Surge 1.0 -> 2.0 at t=300, back to 1.0 at t=600 (a 5-minute blip),
	// then 1.0 -> 1.5 at t=1200 lasting through t=2400.
	log := []measure.SurgeChange{
		{Time: 300, From: 1.0, To: 2.0},
		{Time: 600, From: 2.0, To: 1.0},
		{Time: 1200, From: 1.0, To: 1.5},
	}
	res := WaitOut(log, 1.0, 0, 2400, 300)
	if res.Cases != 2 {
		t.Fatalf("cases = %d, want 2", res.Cases)
	}
	// Onset 1: waiting 300 s lands exactly on the drop to 1.0 (change at
	// 600 applies at 600). Onset 2: still 1.5.
	if res.Improved != 1 || res.Cleared != 1 {
		t.Errorf("improved/cleared = %d/%d, want 1/1", res.Improved, res.Cleared)
	}
	wantMeanSave := ((2.0 - 1.0) + (1.5 - 1.5)) / 2
	if math.Abs(res.MeanSaving-wantMeanSave) > 1e-9 {
		t.Errorf("mean saving = %v, want %v", res.MeanSaving, wantMeanSave)
	}
	if res.ImprovedFrac() != 0.5 || res.ClearedFrac() != 0.5 {
		t.Errorf("fracs = %v/%v", res.ImprovedFrac(), res.ClearedFrac())
	}
}

func TestWaitOutNoSurges(t *testing.T) {
	res := WaitOut(nil, 1.0, 0, 1000, 300)
	if res.Cases != 0 || res.ImprovedFrac() != 0 || res.ClearedFrac() != 0 {
		t.Errorf("empty log produced cases: %+v", res)
	}
}

func TestWaitOutOnsetNearEndSkipped(t *testing.T) {
	log := []measure.SurgeChange{{Time: 900, From: 1.0, To: 2.0}}
	// Waiting would look past the window end: the case is skipped.
	res := WaitOut(log, 1.0, 0, 1000, 300)
	if res.Cases != 0 {
		t.Errorf("cases = %d, want 0", res.Cases)
	}
}

func TestWaitOutOnRealStream(t *testing.T) {
	// On a real SF API stream, waiting one 5-minute interval from onset
	// must beat paying immediately a substantial fraction of the time —
	// the paper's "majority of surges are short-lived" argument.
	svc := api.Scenario{City: "sf", Seed: 17}.Build()
	svc.Register("waiter")
	loc := svc.World().Projection().ToLatLng(geo.Point{X: 500, Y: -500})
	probe := measure.NewAPIProbe(svc, "waiter", loc)
	end := int64(20 * 3600)
	for svc.Now() < end {
		svc.Step()
		probe.Poll()
	}
	res := WaitOut(probe.Log, 1, 0, end, 300)
	if res.Cases < 10 {
		t.Skipf("only %d onsets", res.Cases)
	}
	if res.ImprovedFrac() < 0.25 {
		t.Errorf("waiting helped only %.0f%% of the time; surges should be short-lived",
			res.ImprovedFrac()*100)
	}
	if res.MeanAfter >= res.MeanOnset {
		t.Errorf("waiting did not reduce the mean multiplier: %.2f -> %.2f",
			res.MeanOnset, res.MeanAfter)
	}

	// Longer waits clear more surges.
	long := WaitOut(probe.Log, 1, 0, end, 1800)
	if long.ClearedFrac() < res.ClearedFrac() {
		t.Errorf("clearing fraction should not fall with longer waits: %v vs %v",
			long.ClearedFrac(), res.ClearedFrac())
	}
}
