package bus

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

func openTestBroker(t *testing.T, dir string) *Broker {
	t.Helper()
	b, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return b
}

func mustTopic(t *testing.T, b *Broker, name string) *Topic {
	t.Helper()
	tp, err := b.Topic(name)
	if err != nil {
		t.Fatalf("Topic(%s): %v", name, err)
	}
	return tp
}

func mustPublish(t *testing.T, tp *Topic, ev Event) {
	t.Helper()
	if err := tp.Publish(ev); err != nil {
		t.Fatalf("Publish: %v", err)
	}
}

// drain consumes everything currently published.
func drain(c *Consumer) []Event {
	var out []Event
	for {
		ev, ok := c.TryNext()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

// TestTotalOrderPerTopic: a topic is one log. Publishers racing on many
// keys get Seq numbers dense from 0, each publisher's events keep the
// order it published them in, and a consumer group and a cross-process
// tailer deliver the same sequence.
func TestTotalOrderPerTopic(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	defer b.Close()
	tp := mustTopic(t, b, "t")

	const pubs, keys, each = 4, 13, 50
	var wg sync.WaitGroup
	for g := 0; g < pubs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ev := Event{Time: int64(i), Kind: KindTripDispatch,
					Key: fmt.Sprintf("car-%d", (g*each+i)%keys), Num: float64(g)}
				if err := tp.Publish(ev); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	c, err := tp.Subscribe("g")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer c.Close()
	evs := drain(c)
	if len(evs) != pubs*each {
		t.Fatalf("got %d events, want %d", len(evs), pubs*each)
	}
	var next [pubs]int64 // each publisher's next event time
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		g := int(ev.Num)
		if ev.Time != next[g] {
			t.Fatalf("seq %d: publisher %d's event %d, want its event %d", ev.Seq, g, ev.Time, next[g])
		}
		next[g]++
	}

	tail, err := OpenTail(dir, "t")
	if err != nil {
		t.Fatalf("OpenTail: %v", err)
	}
	defer tail.Close()
	type id struct {
		seq, time int64
		key       string
		num       float64
	}
	ids := func(evs []Event) []id {
		out := make([]id, len(evs))
		for i, ev := range evs {
			out[i] = id{ev.Seq, ev.Time, ev.Key, ev.Num}
		}
		return out
	}
	if got, want := ids(tail.Poll(nil)), ids(evs); !reflect.DeepEqual(got, want) {
		t.Fatalf("tailer delivered %v\nconsumer delivered %v", got, want)
	}
}

func TestOffsetResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	b, err := Open(dir, reg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	tp := mustTopic(t, b, "t")
	data := make([]byte, segmentBytes/16) // force several segments
	for i := 0; i < 100; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindPing, Key: fmt.Sprintf("c-%d", i%7), Data: data})
	}
	c, err := tp.Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	var firstHalf []Event
	for i := 0; i < 60; i++ {
		ev, ok := c.TryNext()
		if !ok {
			t.Fatalf("TryNext dry after %d events", i)
		}
		firstHalf = append(firstHalf, ev)
	}
	if err := c.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// The group's lag gauge is what Commit saw: the 40 events still unread.
	lag := reg.Gauge("bus_consumer_lag_events", obs.L("topic", "t"), obs.L("group", "g")).Value()
	if lag != float64(c.Lag()) || lag <= 0 {
		t.Fatalf("bus_consumer_lag_events = %g after Commit, want Lag() = %d > 0", lag, c.Lag())
	}
	c.Close()
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart: same dir, new broker. The group resumes where it
	// committed; together the two sessions see every event exactly once
	// (no crash between processing and commit here).
	b2 := openTestBroker(t, dir)
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	for i := 100; i < 120; i++ {
		mustPublish(t, tp2, Event{Time: int64(i), Kind: KindPing, Key: fmt.Sprintf("c-%d", i%7), Data: data})
	}
	c2, err := tp2.Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rest := drain(c2)
	if got, want := len(firstHalf)+len(rest), 120; got != want {
		t.Fatalf("saw %d events across restart, want %d", got, want)
	}
	seen := make(map[int64]int)
	for _, ev := range append(firstHalf, rest...) {
		seen[ev.Seq]++
	}
	for off, n := range seen {
		if n != 1 {
			t.Fatalf("offset %d delivered %d times, want 1", off, n)
		}
	}
}

func TestAtLeastOnceRedeliveryWithoutCommit(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	for i := 0; i < 20; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindPing, Key: "k"})
	}
	c, _ := tp.Subscribe("g")
	if got := len(drain(c)); got != 20 {
		t.Fatalf("first consumer saw %d events, want 20", got)
	}
	// "Crash": no Commit. Close and restart.
	c.Close()
	b.Close()

	b2 := openTestBroker(t, dir)
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	c2, _ := tp2.Subscribe("g")
	defer c2.Close()
	redelivered := drain(c2)
	if len(redelivered) != 20 {
		t.Fatalf("redelivered %d events, want all 20 (at-least-once)", len(redelivered))
	}
	for i, ev := range redelivered {
		if ev.Seq != int64(i) || ev.Time != int64(i) {
			t.Fatalf("redelivery out of order at %d: seq=%d time=%d", i, ev.Seq, ev.Time)
		}
	}
}

func TestResumeReadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	data := make([]byte, segmentBytes/16) // several segments
	for i := 0; i < 50; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindSurgeChange, Key: "area-01", Num: 1.5, Data: data})
	}
	b.Close()

	// The first 50 events come back from the segments the first broker
	// wrote, the next 10 from the active segment the reopened one appends
	// to.
	b2 := openTestBroker(t, dir)
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	c, _ := tp2.Subscribe("g")
	defer c.Close()
	for i := 50; i < 60; i++ {
		mustPublish(t, tp2, Event{Time: int64(i), Kind: KindSurgeChange, Key: "area-01", Num: 1.5, Data: data})
	}
	evs := drain(c)
	if len(evs) != 60 {
		t.Fatalf("got %d events, want 60", len(evs))
	}
	for i, ev := range evs {
		if ev.Time != int64(i) {
			t.Fatalf("event %d has time %d", i, ev.Time)
		}
		if ev.Key != "area-01" || ev.Num != 1.5 {
			t.Fatalf("event %d corrupted: %+v", i, ev)
		}
	}
}

// TestIdleConsumerDoesNotBlockPublish: a group that reads nothing holds
// up no publisher: 16 MiB of events, sixteen segments' worth, reach the
// log at once, and the group then reads every one back in order.
func TestIdleConsumerDoesNotBlockPublish(t *testing.T) {
	b := openTestBroker(t, t.TempDir())
	defer b.Close()
	tp := mustTopic(t, b, "t")
	c, err := tp.Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	data := make([]byte, segmentBytes/4)
	published := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := tp.Publish(Event{Time: int64(i), Kind: KindPing, Key: "k", Data: data}); err != nil {
				published <- err
				return
			}
		}
		published <- nil
	}()
	select {
	case err := <-published:
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked behind a consumer that reads nothing")
	}
	for i := int64(0); i < n; i++ {
		ev, ok := c.TryNext()
		if !ok || ev.Seq != i || ev.Time != i || len(ev.Data) != len(data) {
			t.Fatalf("TryNext = seq %d time %d, %d B, %v; want seq %d", ev.Seq, ev.Time, len(ev.Data), ok, i)
		}
	}
	if ev, ok := c.TryNext(); ok {
		t.Fatalf("TryNext past the end = seq %d", ev.Seq)
	}
}

func TestConcurrentPublishConsumeRace(t *testing.T) {
	// Exercised under -race in CI: concurrent publishers on distinct
	// keys, one consumer, commit/lag in the loop.
	b := openTestBroker(t, t.TempDir())
	defer b.Close()
	tp := mustTopic(t, b, "t")
	c, _ := tp.Subscribe("g")
	defer c.Close()

	const pubs, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < pubs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := tp.Publish(Event{Time: int64(i), Kind: KindPing, Key: fmt.Sprintf("p%d", g)}); err != nil {
					t.Errorf("Publish: %v", err)
					return
				}
			}
		}(g)
	}
	got := 0
	for got < pubs*each {
		if _, ok := c.Next(); !ok {
			t.Fatalf("consumer ended early after %d", got)
		}
		got++
		if got%100 == 0 {
			if err := c.Commit(); err != nil {
				t.Fatalf("Commit: %v", err)
			}
		}
	}
	wg.Wait()
	if lag := c.Lag(); lag != 0 {
		t.Fatalf("lag %d after full drain", lag)
	}
}

func TestTailerFollowsLiveTopic(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	defer b.Close()
	tp := mustTopic(t, b, "surge.changes")
	data := make([]byte, segmentBytes/8) // several segments
	for i := 0; i < 30; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindSurgeChange, Key: fmt.Sprintf("area-%02d", i%5), Num: 1 + float64(i%4)/10, Data: data})
	}

	tail, err := OpenTail(dir, "surge.changes")
	if err != nil {
		t.Fatalf("OpenTail: %v", err)
	}
	defer tail.Close()
	evs := tail.Poll(nil)
	if len(evs) != 30 {
		t.Fatalf("tailer saw %d events, want 30", len(evs))
	}
	// More events arrive; the tailer picks up exactly the delta.
	for i := 30; i < 45; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindSurgeChange, Key: fmt.Sprintf("area-%02d", i%5), Num: 2, Data: data})
	}
	more := tail.Poll(nil)
	if len(more) != 15 {
		t.Fatalf("tailer saw %d new events, want 15", len(more))
	}
	for _, ev := range more {
		if ev.Num != 2 {
			t.Fatalf("stale event in delta: %+v", ev)
		}
	}
	if extra := tail.Poll(nil); len(extra) != 0 {
		t.Fatalf("empty poll returned %d events", len(extra))
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	for i := 0; i < 10; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindPing, Key: "k"})
	}
	b.Close()

	// Simulate a crash mid-frame: append garbage to the active segment.
	segs, err := listSegments(filepath.Join(dir, "t"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v (%d)", err, len(segs))
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0x00})
	f.Close()

	b2 := openTestBroker(t, dir)
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	// The torn tail is gone; appends continue at offset 10.
	mustPublish(t, tp2, Event{Time: 10, Kind: KindPing, Key: "k"})
	c, _ := tp2.Subscribe("g")
	defer c.Close()
	evs := drain(c)
	if len(evs) != 11 {
		t.Fatalf("got %d events, want 11", len(evs))
	}
	for i, ev := range evs {
		if ev.Time != int64(i) {
			t.Fatalf("event %d has time %d", i, ev.Time)
		}
	}
}

// TestCrashInsideRollReopens: a kill between roll creating the next
// segment file and writing its magic leaves an empty newest segment. That
// is a segment that never started, not corruption: the broker must come
// back up and carry on at the same base.
func TestCrashInsideRollReopens(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	for i := 0; i < 3; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindPing, Key: "k"})
	}
	b.Close()
	empty := filepath.Join(dir, "t", fmt.Sprintf("%016d.seg", 3))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	b2 := openTestBroker(t, dir)
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	mustPublish(t, tp2, Event{Time: 3, Kind: KindPing, Key: "k"})
	c, err := tp2.Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	evs := drain(c)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) || ev.Time != int64(i) {
			t.Fatalf("event %d: seq %d time %d", i, ev.Seq, ev.Time)
		}
	}
}

// TestDamagedSealedSegmentSameForAllReaders: one flipped byte in a sealed
// segment costs every reader the same events — that segment's frames
// from the damage on — and stalls none of them: the in-process consumer
// and the cross-process tailer deliver the same offsets, the consumer
// counts what it passed over, and it goes on to read every event
// published after the damage.
func TestDamagedSealedSegmentSameForAllReaders(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	const total = 200
	payload := make([]byte, segmentBytes/32) // several segments
	for i := 0; i < total; i++ {
		mustPublish(t, tp, Event{Time: int64(i), Kind: KindPing, Key: fmt.Sprintf("c-%d", i%7), Data: payload})
	}
	b.Close()

	segs, err := listSegments(filepath.Join(dir, "t"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
	}
	data, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[1].path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	b2, err := Open(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	tp2 := mustTopic(t, b2, "t")
	c, err := tp2.Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tail, err := OpenTail(dir, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()

	seqs := func(evs []Event) []int64 {
		out := make([]int64, len(evs))
		for i, ev := range evs {
			out[i] = ev.Seq
		}
		return out
	}
	got, want := seqs(drain(c)), seqs(tail.Poll(nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("consumer delivered %v\ntailer delivered %v", got, want)
	}
	lost := int64(total - len(got))
	if lost <= 0 || lost >= segs[2].base-segs[1].base || got[len(got)-1] != total-1 {
		t.Fatalf("delivered %d of %d events ending at %d; want all but part of segment [%d, %d)",
			len(got), total, got[len(got)-1], segs[1].base, segs[2].base)
	}
	if lag := c.Lag(); lag != 0 {
		t.Fatalf("consumer lag %d after draining", lag)
	}
	if n := reg.Counter("bus_skipped_events_total", obs.L("topic", "t")).Value(); n != lost {
		t.Fatalf("bus_skipped_events_total = %d, want %d", n, lost)
	}

	// The consumer keeps up with 16 MiB of new events across new segments.
	big := make([]byte, segmentBytes/4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := total; i < total+64; i++ {
			if err := tp2.Publish(Event{Time: int64(i), Kind: KindPing, Key: "k", Data: big}); err != nil {
				t.Errorf("Publish: %v", err)
				return
			}
			if ev, ok := c.Next(); !ok || ev.Seq != int64(i) {
				t.Errorf("after publishing %d: Next = %+v, %v", i, ev, ok)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked behind the consumer")
	}
}

// TestOversizeEventRefused: an event the decoders would reject (a fault
// event's Str is a client-chosen URL path) must not reach the log, where
// it would hide every later event of its segment from readers and make
// the next open truncate them away.
func TestOversizeEventRefused(t *testing.T) {
	dir := t.TempDir()
	b := openTestBroker(t, dir)
	tp := mustTopic(t, b, "t")
	for name, ev := range map[string]Event{
		"key":  {Kind: KindFault, Key: strings.Repeat("k", maxStringLen+1)},
		"str":  {Kind: KindFault, Key: "k", Str: strings.Repeat("/", maxStringLen+1)},
		"data": {Kind: KindPing, Key: "k", Data: make([]byte, maxDataLen+1)},
	} {
		if err := tp.Publish(ev); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversize %s: Publish = %v, want ErrTooLarge", name, err)
		}
	}
	mustPublish(t, tp, Event{Time: 7, Kind: KindFault, Key: "k",
		Str: strings.Repeat("/", maxStringLen), Data: make([]byte, maxDataLen)})
	b.Close()

	b2 := openTestBroker(t, dir)
	defer b2.Close()
	c, err := mustTopic(t, b2, "t").Subscribe("g")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if evs := drain(c); len(evs) != 1 || evs[0].Time != 7 || evs[0].Seq != 0 {
		t.Fatalf("after reopen got %+v, want only the at-limit event, at offset 0", evs)
	}
}

func TestObservationRoundTrip(t *testing.T) {
	o := Observation{
		Client: "probe-07", Lat: 40.75, Lng: -73.99, Time: 3600,
		Types: []wire.TypeObs{
			{Name: "UberX", Surge: 1.5, EWT: 240, Cars: []wire.Car{
				{ID: "sess-1", Lat: 40.74, Lng: -73.98},
				{ID: "sess-2", Lat: 40.76, Lng: -74.0},
			}},
			{Name: "UberT", Surge: 1, EWT: 600},
		},
	}
	enc := AppendObservation(nil, &o)
	got, err := DecodeObservation(enc)
	if err != nil {
		t.Fatalf("DecodeObservation: %v", err)
	}
	re := AppendObservation(nil, &got)
	if string(re) != string(enc) {
		t.Fatalf("observation codec not canonical")
	}
}

// TestOldLayoutRefused: a topic directory of the partitioned layout keeps
// its events under p0/, p1/, … beside a TOPIC.json. Opened as a single
// log it would look empty, so the broker and the tailer refuse it by
// name; and a group offsets file of that layout (a count, then one offset
// per partition) is corrupt, not an offset.
func TestOldLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	for topic, old := range map[string]string{"meta": "TOPIC.json", "parts": "p0"} {
		path := filepath.Join(dir, topic, old)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		var err error
		if old == "p0" {
			err = os.Mkdir(path, 0o755)
		} else {
			err = os.WriteFile(path, []byte(`{"partitions":4}`), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		b := openTestBroker(t, dir)
		if _, err := b.Topic(topic); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("Broker.Topic(%s) = %v, want an error naming %s", topic, err, path)
		}
		b.Close()
		if _, err := OpenTail(dir, topic); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("OpenTail(%s) = %v, want an error naming %s", topic, err, path)
		}
	}

	b := openTestBroker(t, dir)
	defer b.Close()
	tp := mustTopic(t, b, "t")
	old := wire.BeginFrame([]byte(offMagic))
	old = append(old, 2, 5, 7) // two partitions, at offsets 5 and 7
	wire.EndFrame(old, len(offMagic))
	if err := os.WriteFile(tp.offsetPath("g"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Subscribe("g"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Subscribe over a per-partition offsets file = %v, want ErrCorrupt", err)
	}
}

// BenchmarkPublishParallel: publishers on every P append ping-sized
// (1.2 kB) events, cycling through the campaign's 43 client keys, to one
// topic with no consumer attached. It is the cost of the topic's one lock
// under the api.pings load of concurrent HTTP handlers.
func BenchmarkPublishParallel(b *testing.B) {
	br, err := Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	tp, err := br.Topic(TopicPings)
	if err != nil {
		b.Fatal(err)
	}
	var keys [43]string
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%02d", i)
	}
	data := make([]byte, 1200)
	var gs atomic.Int64
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(gs.Add(1)); pb.Next(); i++ {
			if err := tp.Publish(Event{Kind: KindPing, Key: keys[i%len(keys)], Area: -1, Data: data}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
