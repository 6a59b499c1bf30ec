package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("endpoint", "/ping"))
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same (name, labels) -> same handle, label order irrelevant.
	if r.Counter("reqs_total", L("endpoint", "/ping")) != c {
		t.Error("counter lookup not idempotent")
	}
	g := r.Gauge("drivers")
	g.Set(42.5)
	if got := g.Value(); got != 42.5 {
		t.Errorf("gauge = %g, want 42.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", nil)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil metrics recorded values")
	}
	var buf strings.Builder
	r.WritePrometheus(&buf)
	if buf.Len() != 0 {
		t.Error("nil registry wrote output")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5, 10})
	// 100 observations uniform over (0, 10]: v = 0.1, 0.2, ... 10.0.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 10)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.Sum; math.Abs(got-505) > 1e-9 {
		t.Errorf("sum = %g, want 505", got)
	}
	if got := s.Mean(); math.Abs(got-5.05) > 1e-9 {
		t.Errorf("mean = %g, want 5.05", got)
	}
	// Exact bucket counts: 10 in (0,1], 10 in (1,2], 30 in (2,5], 50 in (5,10].
	for i, want := range []int64{10, 10, 30, 50, 0} {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	// Interpolated quantiles: p50 lands mid-way through the (2,5] bucket.
	cases := []struct{ q, want float64 }{
		{0.10, 1},   // exactly exhausts bucket 0
		{0.50, 5},   // rank 50 = cum 20 + 30/30 through (2,5]
		{0.25, 2.5}, // rank 25 = 5/30 through (2,5]
		{0.95, 9.5}, // rank 95 = 45/50 through (5,10]
		{1.00, 10},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q%g = %g, want %g", c.q*100, got, c.want)
		}
	}
	// Empty histogram.
	if got := (HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(0.5)
	s := h.Snapshot()
	if s.Counts[2] != 1 {
		t.Errorf("overflow count = %d", s.Counts[2])
	}
	// Overflow observations are attributed to the highest finite bound.
	if got := s.Quantile(0.99); got != 2 {
		t.Errorf("q99 = %g, want 2", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 || s.Counts[0] != 8000 {
		t.Errorf("count = %d / bucket0 = %d, want 8000", s.Count, s.Counts[0])
	}
	if math.Abs(s.Sum-2000) > 1e-6 {
		t.Errorf("sum = %g, want 2000", s.Sum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", L("endpoint", "/ping"), L("code", "2xx")).Add(7)
	r.Gauge("sim_drivers_online").Set(123)
	h := r.Histogram("rt_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var buf strings.Builder
	r.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# TYPE http_requests_total counter\n",
		`http_requests_total{code="2xx",endpoint="/ping"} 7` + "\n",
		"# TYPE sim_drivers_online gauge\n",
		"sim_drivers_online 123\n",
		"# TYPE rt_seconds histogram\n",
		`rt_seconds_bucket{le="0.1"} 1` + "\n",
		`rt_seconds_bucket{le="1"} 2` + "\n",
		`rt_seconds_bucket{le="+Inf"} 3` + "\n",
		"rt_seconds_sum 3.55\n",
		"rt_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Histogram labels merge with le=.
	r2 := NewRegistry()
	r2.Histogram("d_seconds", []float64{1}, L("endpoint", "/x")).Observe(0.5)
	buf.Reset()
	r2.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `d_seconds_bucket{endpoint="/x",le="1"} 1`) {
		t.Errorf("labeled histogram exposition wrong:\n%s", buf.String())
	}
}
