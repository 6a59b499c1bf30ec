package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. The spans of one request
// share ID; Parent is the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	ID     string `json:"id"`
}

// tracer keeps spans in memory until the run ends. Every span is recorded
// from the benchmark's own files, around a call into a layer or inside an
// http.RoundTripper, http.Handler or client.Sink the benchmark owns. A nil
// or switched-off tracer records nothing, so the same wrappers serve the
// untraced baseline pass of a traced run.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// open starts a span and returns its index, or -1 when tracing is off.
func (t *tracer) open(name, id string, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// close ends the span open returned; -1 is ignored.
func (t *tracer) close(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a finished span from timestamps the caller already took.
func (t *tracer) add(name, id string, parent int32, start, end time.Time) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, ID: id})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// snapshot copies the spans recorded so far. A handler may still be closing
// its span when the client already has the whole response, hence the lock.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// link applies linkByID to the recorded spans.
func (t *tracer) link(chain ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	linkByID(t.spans, chain...)
}

// linkByID joins spans recorded on the two sides of an HTTP hop, where no
// parent index can travel: the k-th span named chain[c] with a given ID
// becomes a child of the k-th span named chain[c-1] with that ID. This is
// exact because requests sharing an ID are issued one after another (each
// account belongs to one closed-loop client) and nothing retries.
func linkByID(spans []span, chain ...string) {
	for c := 1; c < len(chain); c++ {
		parents := make(map[string][]int32)
		for i := range spans {
			if spans[i].Name == chain[c-1] {
				parents[spans[i].ID] = append(parents[spans[i].ID], int32(i))
			}
		}
		next := make(map[string]int)
		for i := range spans {
			s := &spans[i]
			if s.Name != chain[c] || s.Parent >= 0 {
				continue
			}
			if q, k := parents[s.ID], next[s.ID]; k < len(q) {
				s.Parent = q[k]
				next[s.ID] = k + 1
			}
		}
	}
}

// selfTimes returns for every span its duration minus the part of that
// interval its children cover: children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i := range spans {
		p := &spans[i]
		self[i] = p.End - p.Start
		ivs = ivs[:0]
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := p.Start
		for _, v := range ivs {
			if v.hi <= covered {
				continue
			}
			self[i] -= v.hi - max(v.lo, covered)
			covered = v.hi
		}
	}
	return self
}

// roots returns for every span the index of the root of its tree.
func roots(spans []span) []int32 {
	r := make([]int32, len(spans))
	for i := range spans {
		j := int32(i)
		for spans[j].Parent >= 0 {
			j = spans[j].Parent
		}
		r[i] = j
	}
	return r
}

// spanStats aggregates a finished trace by span name.
type spanStats struct {
	spans []span
	self  []int64
	root  []int32
}

func analyze(spans []span) *spanStats {
	return &spanStats{spans: spans, self: selfTimes(spans), root: roots(spans)}
}

// spanPart selects which part of a span an aggregate is taken over.
type spanPart int

const (
	spanSelf    spanPart = iota // duration minus what the children cover
	spanWhole                   // the whole duration
	spanCovered                 // the part the children cover
)

// pick collects the chosen part of the spans called name whose tree is
// rooted at a span called rootName ("" accepts any root).
func (st *spanStats) pick(name, rootName string, part spanPart) latencies {
	var out latencies
	for i := range st.spans {
		s := &st.spans[i]
		if s.Name != name || (rootName != "" && st.spans[st.root[i]].Name != rootName) {
			continue
		}
		d := st.self[i]
		switch part {
		case spanWhole:
			d = s.End - s.Start
		case spanCovered:
			d = s.End - s.Start - d
		}
		out = append(out, time.Duration(d))
	}
	return out
}

// p50 is the median in ms of the chosen part of the named spans.
func (st *spanStats) p50(name, rootName string, part spanPart) float64 {
	p50, _, _ := st.pick(name, rootName, part).summary()
	return ms(p50)
}

// writeTrace stores the spans of a traced run under outDir.
func writeTrace(outDir, workload string, seed int64, spans []span) error {
	f, err := os.Create(filepath.Join(outDir, workload+".trace.json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
