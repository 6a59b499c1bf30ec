package measure

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/wire"
)

func pingEvent(t int64, client string, surge, ewt float64, carIDs ...string) bus.Event {
	o := bus.Observation{Client: client, Time: t}
	ty := wire.TypeObs{Name: core.UberX.String(), Surge: surge, EWT: ewt}
	for _, id := range carIDs {
		ty.Cars = append(ty.Cars, wire.Car{ID: id, Lat: 40.75, Lng: -73.99})
	}
	o.Types = append(o.Types, ty)
	return bus.Event{
		Time: t, Kind: bus.KindPing, Key: client,
		Data: bus.AppendObservation(nil, &o),
	}
}

// TestStreamAnalyzerWindows: windows seal on time boundaries with the
// expected supply (unique cars), dispatch counts, and means.
func TestStreamAnalyzerWindows(t *testing.T) {
	a := NewStreamAnalyzer()

	// Window [0,300): two pings sharing one car, one dispatch.
	if s := a.Feed(pingEvent(10, "c0", 1.0, 120, "carA", "carB")); s != nil {
		t.Fatalf("window sealed early: %+v", s)
	}
	a.Feed(pingEvent(15, "c1", 1.2, 180, "carB", "carC"))
	a.Feed(bus.Event{Time: 20, Kind: bus.KindTripDispatch, Key: "d1", Num: 1.5})

	// First event of [300,600) seals the previous window.
	sealed := a.Feed(pingEvent(305, "c0", 2.0, 240, "carA"))
	if sealed == nil {
		t.Fatal("crossing the window boundary sealed nothing")
	}
	if sealed.Start != 0 || sealed.Supply != 3 || sealed.Dispatches != 1 || sealed.Pings != 2 {
		t.Fatalf("sealed window = %+v, want start=0 supply=3 dispatches=1 pings=2", sealed)
	}
	if got, want := sealed.MeanSurge, 1.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanSurge = %g, want %g", got, want)
	}
	if got, want := sealed.MeanEWT, 150.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanEWT = %g, want %g", got, want)
	}

	// A straggler from the sealed window folds into the open one and is
	// counted as late, never reopening history.
	a.Feed(pingEvent(295, "c1", 1.0, 60, "carZ"))
	if a.Late != 1 {
		t.Errorf("Late = %d, want 1", a.Late)
	}
	// A ping whose payload is cut short is counted, not aggregated.
	cut := pingEvent(310, "c2", 3.0, 900, "carQ")
	cut.Data = cut.Data[:len(cut.Data)-1]
	a.Feed(cut)
	if a.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", a.Corrupt)
	}
	if got := a.Flush(); got == nil || got.Supply != 2 || got.Pings != 2 {
		t.Errorf("flushed window = %+v, want supply=2 pings=2 (carA + late carZ)", got)
	}
	if len(a.windows) != 2 {
		t.Errorf("retained %d windows, want 2", len(a.windows))
	}
}

// TestStreamAnalyzerCorrelations: a constructed campaign where surge
// rises exactly when supply falls and EWT rises must report the Fig
// 20/21 signs: corr(surge, supply) < 0, corr(surge, EWT) > 0.
func TestStreamAnalyzerCorrelations(t *testing.T) {
	a := NewStreamAnalyzer()
	for w := 0; w < 12; w++ {
		base := int64(w) * 300
		// Supply alternates rich/poor out of phase with surge.
		nCars := 8 - (w%4)*2
		surge := 1.0 + float64(w%4)*0.5
		ewt := 60 + float64(w%4)*90
		for p := 0; p < 3; p++ {
			ids := make([]string, nCars)
			for c := range ids {
				ids[c] = fmt.Sprintf("car-%d-%d", w, c)
			}
			a.Feed(pingEvent(base+int64(p)*5, fmt.Sprintf("c%d", p), surge, ewt, ids...))
		}
		for d := 0; d < nCars; d++ {
			a.Feed(bus.Event{Time: base + 100, Kind: bus.KindTripDispatch, Key: "d", Num: surge})
		}
	}
	a.Feed(bus.Event{Time: 12 * 300, Kind: bus.KindTripDispatch, Key: "d"}) // seal the last full window

	surgeSupply, surgeEWT, surgeDemand, n := a.Correlations()
	if n != 12 {
		t.Fatalf("correlated over %d windows, want 12", n)
	}
	if !(surgeSupply < -0.9) {
		t.Errorf("corr(surge, supply) = %.3f, want strongly negative", surgeSupply)
	}
	if !(surgeEWT > 0.9) {
		t.Errorf("corr(surge, EWT) = %.3f, want strongly positive", surgeEWT)
	}
	if !(surgeDemand < -0.9) {
		t.Errorf("corr(surge, dispatches) = %.3f, want strongly negative here (dispatches track supply)", surgeDemand)
	}
}

// TestStreamAnalyzerDegenerate: constant series yield NaN, not a panic
// or a fake correlation.
func TestStreamAnalyzerDegenerate(t *testing.T) {
	a := NewStreamAnalyzer()
	for w := 0; w < 4; w++ {
		a.Feed(pingEvent(int64(w)*300+5, "c0", 1.0, 120, "carA"))
	}
	s, e, d, n := a.Correlations()
	if n != 3 {
		t.Fatalf("n = %d, want 3 sealed windows", n)
	}
	if !math.IsNaN(s) || !math.IsNaN(e) || !math.IsNaN(d) {
		t.Errorf("constant series correlations = %g/%g/%g, want NaN", s, e, d)
	}
}
