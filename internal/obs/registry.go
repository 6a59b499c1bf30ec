// Package obs is the repo's dependency-free observability kit: a metrics
// registry (atomic counters, gauges, and fixed-bucket latency histograms
// with quantile snapshots) and its Prometheus text exposition.
//
// The paper this repo reproduces is a measurement study — pingClient
// latency bands, the 5-minute surge clock, jitter windows — so the serving
// stack instruments those exact signals. Every future "measurably faster"
// PR is expected to justify itself with numbers from this package (via
// cmd/loadgen or GET /metrics on cmd/uberd).
//
// All metric handles are nil-safe: methods on a nil *Counter, *Gauge,
// or *Histogram are no-ops, and a nil *Registry hands out nil
// handles. Instrumented code therefore wires metrics unconditionally and
// pays nothing when observability is off.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" metric dimension.
type Label struct {
	Key, Value string
}

// L builds a Label; it keeps call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind tags a registry entry for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metricEntry struct {
	name   string
	labels string // rendered {k="v",...} or ""
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry owns a namespace of metrics. Handle lookup is idempotent:
// asking twice for the same (name, labels) returns the same handle, so
// callers may resolve handles lazily on hot paths.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*metricEntry)}
}

// renderLabels canonicalizes labels into `{k="v",...}` (keys sorted) or ""
// when there are none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) lookup(name string, labels []Label, kind metricKind) *metricEntry {
	if r == nil {
		return nil
	}
	rendered := renderLabels(labels)
	id := name + rendered
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		return e
	}
	e := &metricEntry{name: name, labels: rendered, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	}
	r.entries[id] = e
	return e
}

// Counter returns (creating if needed) the counter for (name, labels).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.lookup(name, labels, kindCounter)
	if e == nil {
		return nil
	}
	return e.counter
}

// Gauge returns (creating if needed) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.lookup(name, labels, kindGauge)
	if e == nil {
		return nil
	}
	return e.gauge
}

// Histogram returns (creating if needed) the histogram for (name, labels).
// buckets are ascending upper bounds; they are fixed on first creation and
// ignored on later lookups of the same metric. Nil buckets means
// DefLatencyBuckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	e := r.lookup(name, labels, kindHistogram)
	if e == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.hist == nil {
		e.hist = NewHistogram(buckets)
	}
	return e.hist
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format (version 0.0.4), grouped by metric name with names sorted for a
// stable, diffable output.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	entries := make([]*metricEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].labels < entries[j].labels
	})
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			fmt.Fprintf(w, "# TYPE %s %s\n", e.name, typeString(e.kind))
			lastName = e.name
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s%s %d\n", e.name, e.labels, e.counter.Value())
		case kindGauge:
			fmt.Fprintf(w, "%s%s %s\n", e.name, e.labels, formatFloat(e.gauge.Value()))
		case kindHistogram:
			writeHistogram(w, e.name, e.labels, e.hist.Snapshot())
		}
	}
}

func typeString(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// formatFloat renders floats the way Prometheus expects (no exponent for
// ordinary magnitudes, +Inf spelled out).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// mergeLabels splices an extra label into an already-rendered label set.
func mergeLabels(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func writeHistogram(w io.Writer, name, labels string, s HistSnapshot) {
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, mergeLabels(labels, fmt.Sprintf("le=%q", formatFloat(b))), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
