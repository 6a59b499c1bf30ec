// The broker: topics and the append path.
//
// Layout on disk:
//
//	<dir>/<topic>/<base>.seg            append-only segments, named by the
//	                                    offset of their first event
//	<dir>/<topic>/groups/<group>.off    a consumer group's committed offset
//
// The write path appends one frame per event with a single unbuffered
// write, so the bytes are visible to same-host readers (consumer groups
// and the cross-process Tailer) immediately through the page cache; fsync
// happens only on Sync/Close. The log is the only buffer: every reader
// reads it back through the segment cursor, and since it is never
// truncated, a reader that falls behind only reads further back — it
// never holds up a publisher, and no event is dropped for it.

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
	ErrClosed = errors.New("bus: broker closed")
	// ErrTooLarge rejects an event whose Key, Str or Data is longer than
	// the decoders accept: written, it would be a frame no reader gets
	// past, and the next open would truncate the segment at it.
	ErrTooLarge = errors.New("bus: event too large")
)

// segmentBytes rolls a topic's active segment once it holds this many
// bytes. Rolling also resets the string dictionary, so segments stay
// self-contained.
const segmentBytes = 1 << 20

// Broker is an embedded event broker rooted at one directory. All
// methods are safe for concurrent use.
type Broker struct {
	dir string
	reg *obs.Registry

	mu     sync.Mutex
	topics map[string]*Topic
	closed bool
}

// Open opens (creating if needed) a broker rooted at dir. reg receives
// the broker's counters and gauges; nil disables them.
func Open(dir string, reg *obs.Registry) (*Broker, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Broker{dir: dir, reg: reg, topics: make(map[string]*Topic)}, nil
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
	t := &Topic{name: name, dir: dir, reg: b.reg,
		skipped: b.reg.Counter("bus_skipped_events_total", obs.L("topic", name))}
	t.grew.L = &t.mu
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

// Close syncs and closes every topic and wakes waiting consumers. Events
// already published remain readable (consumers drain them from disk); new
// publishes fail with ErrClosed.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()

	return b.eachTopic(func(t *Topic) error {
		t.closed = true
		t.grew.Broadcast()
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
}

// segInfo locates one segment file.
type segInfo struct {
	base int64
	path string
}

// Topic is one named event stream: a single append-only log. All
// mutable state is guarded by mu.
type Topic struct {
	name string
	dir  string
	// reg gives each consumer group its lag gauge; skipped counts the
	// offsets consumers passed over at damage (both nil-safe).
	reg     *obs.Registry
	skipped *obs.Counter

	mu     sync.Mutex
	grew   sync.Cond // broadcast when next grows and on Close
	closed bool

	f       *os.File // active segment
	enc     *encDict
	scratch []byte
	segSize int64 // bytes written to the active segment

	next int64 // next offset to assign
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
	t.next = c.next
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

// Publish appends ev to the topic's log at the next offset, which readers
// see as its Seq (ev.Seq is ignored). It never waits for a reader, and it
// keeps nothing of ev after it returns. An event the decoders would
// reject is refused with ErrTooLarge and nothing is written.
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
	t.segSize += int64(len(t.scratch))
	t.next++
	t.grew.Broadcast()
	return nil
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
