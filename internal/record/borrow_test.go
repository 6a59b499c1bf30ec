package record

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
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
