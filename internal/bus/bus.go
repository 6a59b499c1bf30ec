// The broker: topics, partitions, the append path, and backpressure.
//
// Layout on disk:
//
//	<dir>/<topic>/TOPIC.json            partition count (fixed at creation)
//	<dir>/<topic>/p<k>/<base>.seg       append-only segments, named by the
//	                                    offset of their first event
//	<dir>/<topic>/groups/<group>.off    a consumer group's committed offsets
//
// The write path appends one frame per event with a single unbuffered
// write, so the bytes are visible to same-host readers (the in-process
// disk path and the cross-process Tailer) immediately through the page
// cache; fsync happens only on Sync/Close. Each partition also keeps a
// bounded in-memory ring of recently published events, so a caught-up
// consumer is served without touching the disk at all — segments are read
// back only when a consumer resumes from an old committed offset.
//
// Backpressure is per partition: publishing stalls (or drops, by policy)
// while any attached consumer is more than MaxInflight bytes behind the
// bytes appended since it attached. Attach-relative accounting means a
// consumer resuming into a large historical backlog does not instantly
// freeze publishers; it throttles only growth it has seen and not yet
// consumed. The ring is sized ≥ 2×MaxInflight, so a consumer inside its
// backpressure budget always finds its next event in the ring.

package bus

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
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

// Options configures a Broker. The zero value is usable.
type Options struct {
	// SegmentBytes rolls a partition's active segment once it exceeds
	// this many bytes (default 1 MiB). Rolling also resets the string
	// dictionary, so segments stay self-contained.
	SegmentBytes int
	// MaxInflight bounds, per partition, how many bytes may be appended
	// beyond what the slowest attached consumer has read since it
	// attached (default 1 MiB).
	MaxInflight int
	// Drop makes publishers over the MaxInflight bound drop the event
	// (counted, ErrBackpressure) instead of blocking.
	Drop bool
	// Metrics receives the broker's counters and gauges; nil disables.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 1 << 20
	}
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
	opts.defaults()
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

// topicMeta is the content of TOPIC.json.
type topicMeta struct {
	Partitions int `json:"partitions"`
}

// readTopicMeta reads and validates a topic directory's TOPIC.json.
func readTopicMeta(dir string) (meta topicMeta, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "TOPIC.json"))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(data, &meta); err != nil || meta.Partitions <= 0 {
		return meta, fmt.Errorf("bus: %s: TOPIC.json: %w", filepath.Base(dir), ErrCorrupt)
	}
	return meta, nil
}

// Topic opens (creating if needed) a topic with the given partition
// count. The count is fixed at creation: reopening an existing topic
// uses the stored count and errors if a different non-zero count is
// requested (repartitioning would scramble per-key order).
func (b *Broker) Topic(name string, partitions int) (*Topic, error) {
	if partitions <= 0 {
		partitions = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	if t, ok := b.topics[name]; ok {
		return t, nil
	}
	dir := filepath.Join(b.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta, err := readTopicMeta(dir)
	if errors.Is(err, os.ErrNotExist) {
		meta.Partitions = partitions
		blob, _ := json.Marshal(meta)
		err = wire.WriteFileAtomic(filepath.Join(dir, "TOPIC.json"), blob)
	}
	if err != nil {
		return nil, err
	}
	if partitions != meta.Partitions && partitions != 1 {
		return nil, fmt.Errorf("bus: topic %s has %d partitions, requested %d",
			name, meta.Partitions, partitions)
	}

	t := &Topic{
		b:      b,
		name:   name,
		notif:  make(map[chan struct{}]struct{}),
		m:      newTopicMetrics(b.opts.Metrics, name),
		groups: filepath.Join(dir, "groups"),
	}
	for k := 0; k < meta.Partitions; k++ {
		p, err := openPartition(t, k, filepath.Join(dir, "p"+strconv.Itoa(k)))
		if err != nil {
			return nil, err
		}
		t.parts = append(t.parts, p)
	}
	b.topics[name] = t
	return t, nil
}

// eachPartition calls fn, under the partition's lock, on every partition
// of the topics open when it is called; it returns fn's first error.
func (b *Broker) eachPartition(fn func(*partition) error) error {
	b.mu.Lock()
	topics := make([]*Topic, 0, len(b.topics))
	for _, t := range b.topics {
		topics = append(topics, t)
	}
	b.mu.Unlock()
	var firstErr error
	for _, t := range topics {
		for _, p := range t.parts {
			p.mu.Lock()
			if err := fn(p); err != nil && firstErr == nil {
				firstErr = err
			}
			p.mu.Unlock()
		}
	}
	return firstErr
}

// Sync fsyncs every partition's active segment.
func (b *Broker) Sync() error {
	return b.eachPartition(func(p *partition) error {
		if p.f == nil {
			return nil
		}
		return p.f.Sync()
	})
}

// Close syncs and closes every partition and unblocks stalled
// publishers and waiting consumers. Events already published remain
// readable (consumers drain from the ring and from disk); new publishes
// fail with ErrClosed.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()

	err := b.eachPartition(func(p *partition) error {
		p.closed = true
		p.pubWait.Broadcast()
		p.t.wake()
		if p.f == nil {
			return nil
		}
		err := p.f.Sync()
		if cerr := p.f.Close(); err == nil {
			err = cerr
		}
		p.f = nil
		return err
	})
	close(b.done)
	return err
}

// Topic is one named event stream, split into partitions.
type Topic struct {
	b      *Broker
	name   string
	groups string
	parts  []*partition
	m      *topicMetrics

	// consMu guards the consumer wake-up registry. Lock order: a
	// partition's mu may be held when taking consMu (the publish path
	// wakes consumers); never the reverse.
	consMu sync.Mutex
	notif  map[chan struct{}]struct{}
}

// Name returns the topic's name.
func (t *Topic) Name() string { return t.name }

// Publish appends ev to the partition its Key hashes to, assigning
// ev.Seq/ev.Part. It blocks while the partition is over its in-flight
// budget (or drops, under Options.Drop). An event the decoders would
// reject is refused with ErrTooLarge and nothing is written.
func (t *Topic) Publish(ev Event) error {
	if len(ev.Key) > maxStringLen || len(ev.Str) > maxStringLen || len(ev.Data) > maxDataLen {
		return fmt.Errorf("%w: key %d B, str %d B (limit %d), data %d B (limit %d)",
			ErrTooLarge, len(ev.Key), len(ev.Str), maxStringLen, len(ev.Data), maxDataLen)
	}
	p := t.parts[partitionOf(ev.Key, len(t.parts))]
	if err := p.publish(&ev); err != nil {
		return err
	}
	t.wake()
	return nil
}

// wake nudges every subscribed consumer (non-blocking).
func (t *Topic) wake() {
	t.consMu.Lock()
	for ch := range t.notif {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	t.consMu.Unlock()
}

func (t *Topic) addNotify(ch chan struct{}) {
	t.consMu.Lock()
	t.notif[ch] = struct{}{}
	t.consMu.Unlock()
}

func (t *Topic) delNotify(ch chan struct{}) {
	t.consMu.Lock()
	delete(t.notif, ch)
	t.consMu.Unlock()
}

// partitionOf maps a key to a partition by FNV-1a hash.
func partitionOf(key string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
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

// partition is one append-only log. All mutable state is guarded by mu.
type partition struct {
	t   *Topic
	idx int
	dir string

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

	readers map[*partReader]struct{}
}

// openPartition opens (creating if needed) one partition directory,
// recovering the write frontier from the newest segment, exactly like the
// tsdb WAL.
func openPartition(t *Topic, idx int, dir string) (*partition, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &partition{
		t:       t,
		idx:     idx,
		dir:     dir,
		readers: make(map[*partReader]struct{}),
	}
	p.pubWait.L = &p.mu

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		err = p.roll(0)
	} else {
		err = p.recoverActive(segs[len(segs)-1])
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// recoverActive reopens the newest segment for appending. The cursor
// reads its intact frames, which fix the next offset and the dictionary;
// whatever follows them is a crash's torn tail and is truncated away.
func (p *partition) recoverActive(seg segInfo) (err error) {
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
	p.f, p.enc = f, c.dict.toEnc()
	p.segSize = c.off - int64(len(segMagic))
	p.next, p.ringLo = c.next, c.next
	return nil
}

// roll closes the active segment and starts a fresh one whose base
// offset is base, resetting the string dictionary.
func (p *partition) roll(base int64) error {
	if p.f != nil {
		if err := p.f.Close(); err != nil {
			return err
		}
		p.f = nil
	}
	path := filepath.Join(p.dir, fmt.Sprintf("%016d.seg", base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.enc = newEncDict()
	p.segSize = 0
	return nil
}

// overLimit reports whether any attached reader is more than MaxInflight
// bytes behind the append watermark. Callers hold mu.
func (p *partition) overLimit() bool {
	limit := int64(p.t.b.opts.MaxInflight)
	for r := range p.readers {
		if p.cum-r.readCum > limit {
			return true
		}
	}
	return false
}

func (p *partition) publish(ev *Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.t.b.opts.Drop {
		if p.overLimit() {
			p.t.m.dropped.Inc()
			return ErrBackpressure
		}
	} else {
		for p.overLimit() {
			p.t.m.blocked.Inc()
			p.pubWait.Wait()
			if p.closed {
				return ErrClosed
			}
		}
	}

	// Roll before encoding: encoding mutates the dictionary, which must
	// match what the frame's segment will replay. The size check is a
	// threshold, not a cap — one frame may overshoot SegmentBytes.
	if p.segSize >= int64(p.t.b.opts.SegmentBytes) || p.enc.full() {
		if err := p.roll(p.next); err != nil {
			return err
		}
	}
	p.scratch = appendEvent(wire.BeginFrame(p.scratch[:0]), ev, p.enc)
	wire.EndFrame(p.scratch, 0)
	if _, err := p.f.Write(p.scratch); err != nil {
		return err
	}
	size := int64(len(p.scratch))
	p.segSize += size

	ev.Seq = p.next
	ev.Part = p.idx
	p.next++
	p.cum += size
	p.ring = append(p.ring, ringEv{ev: *ev, size: size, cum: p.cum})
	p.ringSize += size
	// The in-memory ring of recent events holds 2×MaxInflight: any less and
	// consumers inside their backpressure budget would thrash the disk.
	for p.ringSize > 2*int64(p.t.b.opts.MaxInflight) && len(p.ring) > 1 {
		p.ringSize -= p.ring[0].size
		p.ring = p.ring[1:]
		p.ringLo++
	}

	p.t.m.published.Inc()
	p.t.m.pubBytes.Add(size)
	return nil
}

// listSegments returns dir's segment files sorted by base offset.
func listSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, e := range ents {
		name := e.Name()
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
