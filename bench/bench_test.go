package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestPercentileAndSampleCount(t *testing.T) {
	var l latencies
	for i := 100; i >= 1; i-- { // unsorted on purpose
		l = append(l, time.Duration(i))
	}
	p50, p99, n := l.summary()
	if p50 != 50 || p99 != 99 || n != 100 {
		t.Errorf("summary of 1..100 = (%d, %d, %d), want (50, 99, 100)", p50, p99, n)
	}
	if got := percentile(l, 100); got != 100 {
		t.Errorf("p100 = %d, want 100", got)
	}
	if got := percentile(latencies{7}, 50); got != 7 {
		t.Errorf("p50 of one sample = %d, want 7", got)
	}
	if p50, p99, n := (latencies{}).summary(); p50 != 0 || p99 != 0 || n != 0 {
		t.Errorf("summary of nothing = (%d, %d, %d), want zeros", p50, p99, n)
	}
	// p50 must not reorder the sample it is asked about.
	order := latencies{3, 1, 2}
	if order.p50() != 2 || !reflect.DeepEqual(order, latencies{3, 1, 2}) {
		t.Errorf("p50 = %d and left %v", order.p50(), order)
	}
}

// The acceptance harness computes spreads with Python's
// statistics.quantiles(v, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = (%v, %v), want (%v, %v)", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeOverlappingAndAbsentChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: 10..60 is covered once
		{Name: "c", Start: 90, End: 130, Parent: 0},  // runs past the parent: clipped to 90..100
		{Name: "d", Start: 200, End: 300, Parent: 0}, // wholly outside: covers nothing
		{Name: "leaf", Start: 0, End: 50, Parent: -1},
		{Name: "inner", Start: 35, End: 38, Parent: 2},
	}
	want := []int64{100 - 50 - 10, 30, 30 - 3, 40, 100, 50, 3}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	st := analyze(spans)
	if got := st.pick("root", "", spanCovered); len(got) != 1 || got[0] != 60 {
		t.Errorf("covered part of root = %v, want [60]", got)
	}
	if got := st.pick("inner", "root", spanWhole); len(got) != 1 || got[0] != 3 {
		t.Errorf("inner under root = %v, want [3]", got)
	}
	if got := st.pick("inner", "leaf", spanWhole); len(got) != 0 {
		t.Errorf("inner is not under leaf, got %v", got)
	}
}

func TestLinkByClientID(t *testing.T) {
	// Two requests of account x one after the other, one of account y in
	// between; the gateway saw a probe with no id that must stay unlinked.
	spans := []span{
		{Name: "client.rt", ID: "x", Start: 0, End: 10, Parent: -1},
		{Name: "gate.handler", ID: "x", Start: 1, End: 9, Parent: -1},
		{Name: "client.rt", ID: "y", Start: 2, End: 12, Parent: -1},
		{Name: "shard.handler", ID: "x", Start: 3, End: 7, Parent: -1},
		{Name: "gate.handler", ID: "y", Start: 3, End: 11, Parent: -1},
		{Name: "gate.rt", ID: "x", Start: 2, End: 8, Parent: -1},
		{Name: "client.rt", ID: "x", Start: 20, End: 30, Parent: -1},
		{Name: "gate.handler", ID: "x", Start: 21, End: 29, Parent: -1},
		{Name: "gate.handler", ID: "", Start: 22, End: 23, Parent: -1},
	}
	linkByID(spans, "client.rt", "gate.handler", "gate.rt", "shard.handler")
	want := []int32{-1, 0, -1, 5, 2, 1, -1, 6, -1}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s %q): parent %d, want %d", i, s.Name, s.ID, s.Parent, want[i])
		}
	}
	if r := roots(spans); r[3] != 0 || r[7] != 6 {
		t.Errorf("roots = %v: the shard span belongs to the first request, span 7 to the second", r)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var none *tracer
	if i := none.open("x", "", -1); i != -1 {
		t.Errorf("nil tracer opened span %d", i)
	}
	none.close(-1)
	tr := newTracer(4)
	if tr.open("x", "", -1) != -1 || tr.add("x", "", -1, time.Now(), time.Now()) != -1 {
		t.Error("switched-off tracer recorded a span")
	}
	tr.on.Store(true)
	i := tr.open("x", "id", -1)
	tr.close(i)
	if got := tr.snapshot(); len(got) != 1 || got[0].End < got[0].Start || got[0].ID != "id" {
		t.Errorf("spans = %+v", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed int64) *requestGen {
		return &requestGen{
			r:        newRNG(seed, 7),
			cities:   []city{newCity(sim.Manhattan()), newCity(sim.SanFrancisco())},
			accounts: accountNames(64),
			fresh:    "fresh",
		}
	}
	a, b, c := drawsDigest(gen(1), 10000), drawsDigest(gen(1), 10000), drawsDigest(gen(2), 10000)
	if a != b {
		t.Errorf("same seed drew different requests: %x vs %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 drew the same requests: %x", a)
	}

	g := gen(3)
	var byEndpoint [4]int
	sf := 0
	for i := 0; i < 20000; i++ {
		rq := g.next()
		byEndpoint[rq.ep]++
		sf += rq.city
		if !g.cities[rq.city].profile.MeasureRect.Contains(g.cities[rq.city].proj.ToPlane(rq.loc)) {
			t.Fatalf("draw %d: %v is outside %s's measurement rectangle", i, rq.loc, g.cities[rq.city].profile.Name)
		}
	}
	for ep, want := range []float64{0.78, 0.10, 0.10, 0.02} {
		if got := float64(byEndpoint[ep]) / 20000; got < want-0.01 || got > want+0.01 {
			t.Errorf("%s share = %.3f, want %.2f", endpointNames[ep], got, want)
		}
	}
	if got := float64(sf) / 20000; got < 0.32 || got > 0.35 {
		t.Errorf("san francisco share = %.3f, want a third", got)
	}
}

// BENCHMARK.json is written by hand; the tables in main.go are what the
// program prints. They must say the same.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %+v\nprogram  %+v", m.PerLayer, perLayer)
	}
}
