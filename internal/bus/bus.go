// The broker: topics, the append path, and backpressure.
//
// Layout on disk:
//
//	<dir>/<topic>/<base>.seg            append-only segments, named by the
//	                                    offset of their first event
//	<dir>/<topic>/groups/<group>.off    a consumer group's committed offset
//
// The write path appends one frame per event with a single unbuffered
// write, so the bytes are visible to same-host readers (the in-process
// disk path and the cross-process Tailer) immediately through the page
// cache; fsync happens only on Sync/Close. Each topic also keeps a
// bounded in-memory ring of recently published events, so a caught-up
// consumer is served without touching the disk at all — segments are read
// back only when a consumer resumes from an old committed offset.
//
// Backpressure is per topic: publishing stalls (or drops, by policy)
// while any attached consumer is more than maxInflight bytes behind the
// bytes appended since it attached. Attach-relative accounting means a
// consumer resuming into a large historical backlog does not instantly
// freeze publishers; it throttles only growth it has seen and not yet
// consumed. The ring holds 2×maxInflight, so a consumer inside its
// backpressure budget always finds its next event in the ring.

package bus

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Errors returned by the publish path.
var (
	ErrClosed       = errors.New("bus: broker closed")
	ErrBackpressure = errors.New("bus: event dropped (consumer too far behind)")
	// ErrTooLarge rejects an event whose Key, Str or Data is longer than
	// the decoders accept: written, it would be a frame no reader gets
	// past, and the next open would truncate the segment at it.
	ErrTooLarge = errors.New("bus: event too large")
)

const (
	// segmentBytes rolls a topic's active segment once it holds this many
	// bytes. Rolling also resets the string dictionary, so segments stay
	// self-contained.
	segmentBytes = 1 << 20
	// maxInflight bounds how many bytes may be appended to a topic beyond
	// what its slowest attached consumer has read since it attached.
	maxInflight = 4 << 20
)

// Options configures a Broker. The zero value is usable.
type Options struct {
	// Drop makes publishers over the in-flight bound drop the event
	// (counted, ErrBackpressure) instead of blocking.
	Drop bool
	// Metrics receives the broker's counters and gauges; nil disables.
	Metrics *obs.Registry
}

// Broker is an embedded event broker rooted at one directory. All
// methods are safe for concurrent use.
type Broker struct {
	dir  string
	opts Options

	mu     sync.Mutex
	topics map[string]*Topic
	closed bool
	done   chan struct{}
}

// Open opens (creating if needed) a broker rooted at dir.
func Open(dir string, opts Options) (*Broker, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Broker{
		dir:    dir,
		opts:   opts,
		topics: make(map[string]*Topic),
		done:   make(chan struct{}),
	}, nil
}

// Topic opens (creating if needed) the named topic. A directory of the
// older partitioned layout is refused with an error naming it.
func (b *Broker) Topic(name string) (*Topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if t, ok := b.topics[name]; ok {
		return t, nil
	}
	dir := filepath.Join(b.dir, name)
	if err := os.MkdirAll(filepath.Join(dir, "groups"), 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	t := &Topic{
		b:       b,
		name:    name,
		dir:     dir,
		m:       newTopicMetrics(b.opts.Metrics, name),
		readers: make(map[*Consumer]struct{}),
	}
	t.pubWait.L = &t.mu
	if len(segs) == 0 {
		err = t.roll(0)
	} else {
		err = t.recoverActive(segs[len(segs)-1])
	}
	if err != nil {
		return nil, err
	}
	b.topics[name] = t
	return t, nil
}

// eachTopic calls fn, under the topic's lock, on every topic open when
// it is called; it returns fn's first error.
func (b *Broker) eachTopic(fn func(*Topic) error) error {
	b.mu.Lock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	var firstErr error
	for _, t := range topics {
		t.mu.Lock()
		if err := fn(t); err != nil && firstErr == nil {
			firstErr = err
		}
		t.mu.Unlock()
	}
	return firstErr
}

// Sync fsyncs every topic's active segment.
func (b *Broker) Sync() error {
	return b.eachTopic(func(t *Topic) error {
		if t.f == nil {
			return nil
		}
		return t.f.Sync()
	})
}

// Close syncs and closes every topic and unblocks stalled publishers and
// waiting consumers. Events already published remain readable (consumers
// drain from the ring and from disk); new publishes fail with ErrClosed.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()

	err := b.eachTopic(func(t *Topic) error {
		t.closed = true
		t.pubWait.Broadcast()
		t.wake()
		if t.f == nil {
			return nil
		}
		err := t.f.Sync()
		if cerr := t.f.Close(); err == nil {
			err = cerr
		}
		t.f = nil
		return err
	})
	close(b.done)
	return err
}

// segInfo locates one segment file.
type segInfo struct {
	base int64
	path string
}

// ringEv is one cached event plus the cumulative appended-bytes
// watermark after it (the unit of backpressure accounting).
type ringEv struct {
	ev   Event
	size int64
	cum  int64
}

// Topic is one named event stream: a single append-only log. All
// mutable state is guarded by mu.
type Topic struct {
	b    *Broker
	name string
	dir  string
	m    *topicMetrics

	mu      sync.Mutex
	pubWait sync.Cond // publishers stalled on backpressure
	closed  bool

	f       *os.File // active segment
	enc     *encDict
	scratch []byte
	segSize int64 // bytes written to the active segment

	next int64 // next offset to assign
	cum  int64 // cumulative frame bytes appended since open

	ring     []ringEv
	ringLo   int64 // offset of ring[0]
	ringSize int64

	readers map[*Consumer]struct{}
}

// Name returns the topic's name.
func (t *Topic) Name() string { return t.name }

// recoverActive reopens the newest segment for appending. The cursor
// reads its intact frames, which fix the next offset and the dictionary;
// whatever follows them is a crash's torn tail and is truncated away.
func (t *Topic) recoverActive(seg segInfo) (err error) {
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(len(segMagic)) {
		// A kill inside roll, between creating the file and writing its
		// magic: the segment never started. Start it now.
		if err := f.Truncate(0); err != nil {
			return err
		}
		if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
			return err
		}
	}
	var c segCursor
	if !c.attach(f, seg.base) {
		return fmt.Errorf("bus: %s: bad segment magic: %w", seg.path, ErrCorrupt)
	}
	for ok := true; ok; {
		_, ok = c.readFrame()
	}
	if err := f.Truncate(c.off); err != nil {
		return err
	}
	if _, err := f.Seek(c.off, io.SeekStart); err != nil {
		return err
	}
	t.f, t.enc = f, c.dict.toEnc()
	t.segSize = c.off - int64(len(segMagic))
	t.next, t.ringLo = c.next, c.next
	return nil
}

// roll closes the active segment and starts a fresh one whose base
// offset is base, resetting the string dictionary.
func (t *Topic) roll(base int64) error {
	if t.f != nil {
		if err := t.f.Close(); err != nil {
			return err
		}
		t.f = nil
	}
	path := filepath.Join(t.dir, fmt.Sprintf("%016d.seg", base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	t.f = f
	t.enc = newEncDict()
	t.segSize = 0
	return nil
}

// overLimit reports whether any attached reader is more than maxInflight
// bytes behind the append watermark. Callers hold mu.
func (t *Topic) overLimit() bool {
	for c := range t.readers {
		if t.cum-c.readCum > maxInflight {
			return true
		}
	}
	return false
}

// Publish appends ev to the topic's log, assigning ev.Seq. It blocks
// while the topic is over its in-flight budget (or drops, under
// Options.Drop). An event the decoders would reject is refused with
// ErrTooLarge and nothing is written.
func (t *Topic) Publish(ev Event) error {
	if len(ev.Key) > maxStringLen || len(ev.Str) > maxStringLen || len(ev.Data) > maxDataLen {
		return fmt.Errorf("%w: key %d B, str %d B (limit %d), data %d B (limit %d)",
			ErrTooLarge, len(ev.Key), len(ev.Str), maxStringLen, len(ev.Data), maxDataLen)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if t.b.opts.Drop {
		if t.overLimit() {
			t.m.dropped.Inc()
			return ErrBackpressure
		}
	} else {
		for t.overLimit() {
			t.m.blocked.Inc()
			t.pubWait.Wait()
			if t.closed {
				return ErrClosed
			}
		}
	}

	// Roll before encoding: encoding mutates the dictionary, which must
	// match what the frame's segment will replay. The size check is a
	// threshold, not a cap — one frame may overshoot segmentBytes.
	if t.segSize >= segmentBytes || t.enc.full() {
		if err := t.roll(t.next); err != nil {
			return err
		}
	}
	t.scratch = appendEvent(wire.BeginFrame(t.scratch[:0]), &ev, t.enc)
	wire.EndFrame(t.scratch, 0)
	if _, err := t.f.Write(t.scratch); err != nil {
		return err
	}
	size := int64(len(t.scratch))
	t.segSize += size

	ev.Seq = t.next
	t.next++
	t.cum += size
	t.ring = append(t.ring, ringEv{ev: ev, size: size, cum: t.cum})
	t.ringSize += size
	for t.ringSize > 2*maxInflight && len(t.ring) > 1 {
		t.ringSize -= t.ring[0].size
		t.ring = t.ring[1:]
		t.ringLo++
	}

	t.m.published.Inc()
	t.m.pubBytes.Add(size)
	t.wake()
	return nil
}

// wake nudges every subscribed consumer (non-blocking). Callers hold mu.
func (t *Topic) wake() {
	for c := range t.readers {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// listSegments returns the topic directory's segment files sorted by
// base offset. It refuses a directory of the older partitioned layout
// (a TOPIC.json beside p0/, p1/, …), whose events this version would
// never read.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
		if name == "TOPIC.json" || name == "p0" {
			return nil, fmt.Errorf("bus: %s: a topic of the older partitioned layout, which this version cannot read",
				filepath.Join(dir, name))
		}
		if filepath.Ext(name) != ".seg" {
			continue
		}
		base, err := strconv.ParseInt(name[:len(name)-len(".seg")], 10, 64)
		if err != nil || base < 0 {
			continue
		}
		segs = append(segs, segInfo{base: base, path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}

// topicMetrics are the nil-safe per-topic handles.
type topicMetrics struct {
	published *obs.Counter
	pubBytes  *obs.Counter
	dropped   *obs.Counter
	blocked   *obs.Counter
	skipped   *obs.Counter
	reg       *obs.Registry
	name      string
}

func newTopicMetrics(reg *obs.Registry, topic string) *topicMetrics {
	m := &topicMetrics{reg: reg, name: topic}
	if reg == nil {
		return m
	}
	m.published = reg.Counter("bus_publish_total", obs.L("topic", topic))
	m.pubBytes = reg.Counter("bus_publish_bytes_total", obs.L("topic", topic))
	m.dropped = reg.Counter("bus_dropped_total", obs.L("topic", topic))
	m.blocked = reg.Counter("bus_backpressure_waits_total", obs.L("topic", topic))
	m.skipped = reg.Counter("bus_skipped_events_total", obs.L("topic", topic))
	return m
}

// consumed returns the consume counter for a group (nil-safe).
func (m *topicMetrics) consumed(group string) *obs.Counter {
	if m.reg == nil {
		return nil
	}
	return m.reg.Counter("bus_consume_total", obs.L("topic", m.name), obs.L("group", group))
}

// lagGauge returns the lag gauge for a group (nil-safe).
func (m *topicMetrics) lagGauge(group string) *obs.Gauge {
	if m.reg == nil {
		return nil
	}
	return m.reg.Gauge("bus_consumer_lag_events", obs.L("topic", m.name), obs.L("group", group))
}
