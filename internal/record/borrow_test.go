package record

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/tsdb"
)

// pointerSink records every response pointer it is lent.
type pointerSink struct {
	seen map[*core.PingResponse]int
}

func (s *pointerSink) Observe(_ int, _ geo.Point, resp *core.PingResponse) {
	if s.seen == nil {
		s.seen = map[*core.PingResponse]int{}
	}
	s.seen[resp]++
}
func (s *pointerSink) EndRound(int64) {}

// TestReplayLendsOneResponse: a replay fills every row into one response
// and lends it to the sinks, row after row.
func TestReplayLendsOneResponse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c.tsdb")
	writeBenchStore(t, dir, 30)
	sink := &pointerSink{}
	if _, rounds, err := ReplayPathRange(dir, MinTime, MaxTime, sink); err != nil || rounds != 30 {
		t.Fatalf("replayed %d rounds, err %v; want 30", rounds, err)
	}
	if len(sink.seen) != 1 {
		t.Fatalf("sink was lent %d distinct responses, want 1", len(sink.seen))
	}
	for _, n := range sink.seen {
		if n != 30*benchClients {
			t.Errorf("one response lent %d times, want %d", n, 30*benchClients)
		}
	}
}

// TestWriterObserveAllocs: the writer fills one scratch row for every
// observation and the store copies it into the open slots of its head,
// which a chunk cut leaves for the next rows. So on a warm writer, past the
// first cut, a round of 43 borrowed responses allocates nothing, except in
// a round that cuts chunks.
func TestWriterObserveAllocs(t *testing.T) {
	db, err := tsdb.Open(filepath.Join(t.TempDir(), "c.tsdb"), tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := &Writer{db: db}
	defer w.Close()
	resps := make([]core.PingResponse, benchClients)
	for c := range resps {
		for p := 0; p < 4; p++ {
			ts := core.TypeStatus{Type: core.VehicleType(p), TypeName: core.VehicleType(p).String(), Surge: 1.2, EWTSeconds: 240}
			for k := 0; k < 7; k++ {
				ts.Cars = append(ts.Cars, core.CarView{ID: fmt.Sprintf("car-%d-%d-%d", c, p, k), Pos: geo.LatLng{Lat: 40.7, Lng: -74}})
			}
			resps[c].Types = append(resps[c].Types, ts)
		}
	}
	now := int64(benchStart)
	round := func() {
		now += 5
		for c := range resps {
			resps[c].Time = now
			w.Observe(c, geo.Point{}, &resps[c])
		}
		w.EndRound(now)
	}
	for i := 0; i < 600; i++ { // every series cuts its first chunk at round 512
		round()
	}
	if n := testing.AllocsPerRun(100, round); n != 0 { // the next cut is at round 1024
		t.Errorf("a warm round of %d observations allocates %v objects, want 0", benchClients, n)
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
}
