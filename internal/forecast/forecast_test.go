package forecast

import (
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/measure"
	"repro/internal/sim"
)

var sfDatasetCache *measure.Dataset

func sfDataset(t testing.TB) *measure.Dataset {
	t.Helper()
	if sfDatasetCache != nil {
		return sfDatasetCache
	}
	profile := sim.SanFrancisco()
	svc := api.Scenario{City: profile.Name, Seed: 77}.Build()
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	areas := profile.SurgeAreas()
	clientAreas := make([]int, len(pts))
	for i, p := range pts {
		clientAreas[i] = sim.AreaOf(areas, p)
	}
	ds := measure.NewDataset(measure.Config{
		Profile: profile, Start: 0, End: 12 * 3600, ClientAreas: clientAreas,
	}, len(pts))
	camp.AddSink(ds)
	camp.RunSim(svc, 12*3600)
	ds.Close()
	sfDatasetCache = ds
	return ds
}

func TestBuildSamplesCleaningRule(t *testing.T) {
	ds := sfDataset(t)
	samples := BuildSamplesRange(ds, 0, math.MinInt64, math.MaxInt64)
	if len(samples) == 0 {
		t.Fatal("no samples built")
	}
	// Cleaning: no sample may sit in a fully quiet stretch (surge 1 now,
	// next, and before).
	surge := ds.AreaSurgeSeries(0)
	for _, s := range samples {
		i := surge.Index(s.Time)
		if s.PrevSurge == 1 && s.NextSurge == 1 {
			if i == 0 || surge.Values[i-1] <= 1 {
				t.Errorf("sample at interval %d violates cleaning rule", i)
			}
		}
	}
	// Features must be finite.
	for _, s := range samples {
		for _, v := range []float64{s.SDDiff, s.EWT, s.PrevSurge, s.NextSurge} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite feature in %+v", s)
			}
		}
	}
}

func TestFitTableShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign is slow")
	}
	ds := sfDataset(t)
	table, samples, err := FitCity(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 50 {
		t.Fatalf("only %d samples", len(samples))
	}
	// The paper's central negative result: no model reaches strong
	// predictive performance (R² >= 0.9); all land in a weak-to-moderate
	// band.
	for _, m := range []Model{table.Raw, table.Threshold, table.Rush} {
		if m.N == 0 {
			continue
		}
		if m.R2 >= 0.9 {
			t.Errorf("%s: R² = %.3f — surge should NOT be this forecastable", m.Name, m.R2)
		}
		if m.R2 < 0 {
			t.Errorf("%s: R² = %.3f negative", m.Name, m.R2)
		}
	}
	if table.Raw.N == 0 {
		t.Fatal("raw model did not fit")
	}
	// Previous surge is the dominant signal (Table 1: θ_prev-surge is the
	// largest coefficient in SF).
	if table.Raw.ThetaPrevSurge <= 0 {
		t.Errorf("θ_prev-surge = %v, want positive", table.Raw.ThetaPrevSurge)
	}
}

func TestModelPredict(t *testing.T) {
	m := Model{Intercept: 0.5, ThetaSDDiff: 0.01, ThetaEWT: 0.1, ThetaPrevSurge: 0.4}
	s := Sample{SDDiff: 10, EWT: 3, PrevSurge: 1.5}
	want := 0.5 + 0.1 + 0.3 + 0.6
	if got := m.Predict(s); math.Abs(got-want) > 1e-12 {
		t.Errorf("Predict = %v, want %v", got, want)
	}
}

func TestFitTooFewSamples(t *testing.T) {
	if _, err := fit("x", make([]Sample, 3)); err == nil {
		t.Error("expected error for tiny sample set")
	}
}
