// Consumer groups: named cursors over a topic with committed offsets
// that survive restart.
//
// A group is a file of per-partition offsets, committed atomically
// (write-temp + rename). Delivery is at-least-once: Commit persists the
// position *after* the consumer has processed the events, so a crash
// between processing and Commit replays from the last committed offset.
// Downstream sinks deduplicate (the tsdb ingester skips rows at or
// before each series' stored last time).
//
// One consumer per group per process: the broker does not arbitrate
// concurrent claims on a group (there is no membership protocol), it
// just persists the cursor. That is enough for the embedded use case —
// uberd owns its ingest group, each tail owns its own.

package bus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Consumer is one group's cursor over a topic's partitions. It is not
// safe for concurrent use (one goroutine drives a consumer).
type Consumer struct {
	t      *Topic
	group  string
	prs    []*partReader
	rr     int // round-robin start for fairness across partitions
	notify chan struct{}
	mCons  *obs.Counter
	closed bool
}

// partReader is the consumer's cursor into one partition.
type partReader struct {
	p   *partition
	pos int64 // next offset to deliver
	// readCum is the backpressure watermark: the cumulative-bytes value
	// of the newest ring event this reader has consumed, initialized to
	// the partition's watermark at attach (resuming through an old
	// backlog must not stall publishers).
	readCum int64
	// cur reads the segments back while pos is below the ring.
	cur *segCursor
}

// Subscribe opens the group's cursor over the topic, resuming from its
// committed offsets (zero for a new group).
func (t *Topic) Subscribe(group string) (*Consumer, error) {
	offs, err := loadOffsets(t.offsetsPath(group), len(t.parts))
	if err != nil {
		return nil, err
	}
	c := &Consumer{
		t:      t,
		group:  group,
		notify: make(chan struct{}, 1),
		mCons:  t.m.consumed(group),
	}
	for i, p := range t.parts {
		pr := &partReader{p: p, pos: offs[i]}
		p.mu.Lock()
		if pr.pos > p.next {
			// Offsets ahead of the log (a copied offsets file, a wiped
			// topic dir): clamp rather than stall forever.
			pr.pos = p.next
		}
		pr.readCum = p.cum
		p.readers[pr] = struct{}{}
		p.mu.Unlock()
		c.prs = append(c.prs, pr)
	}
	t.addNotify(c.notify)
	return c, nil
}

func (t *Topic) offsetsPath(group string) string {
	return filepath.Join(t.groups, group+".off")
}

// TryNext returns the next event if one is available, scanning
// partitions round-robin for fairness.
func (c *Consumer) TryNext() (Event, bool) {
	n := len(c.prs)
	for i := 0; i < n; i++ {
		pr := c.prs[(c.rr+i)%n]
		if ev, ok := pr.nextEvent(); ok {
			c.rr = (c.rr + i + 1) % n
			c.mCons.Inc()
			return ev, true
		}
	}
	return Event{}, false
}

// Next blocks until an event is available or the broker is closed with
// nothing left to drain, in which case ok is false.
func (c *Consumer) Next() (Event, bool) {
	for {
		if ev, ok := c.TryNext(); ok {
			return ev, true
		}
		select {
		case <-c.notify:
		case <-c.t.b.done:
			// Closed: deliver whatever is still unread, then report end.
			if ev, ok := c.TryNext(); ok {
				return ev, true
			}
			return Event{}, false
		}
	}
}

// Lag returns how many published events the consumer has not yet
// delivered, summed over partitions.
func (c *Consumer) Lag() int64 {
	var lag int64
	for _, pr := range c.prs {
		pr.p.mu.Lock()
		lag += pr.p.next - pr.pos
		pr.p.mu.Unlock()
	}
	return lag
}

// Commit durably records the consumer's position. Events delivered
// before Commit will not be redelivered after a restart; events
// delivered after the last Commit will be (at-least-once).
func (c *Consumer) Commit() error {
	offs := make([]int64, len(c.prs))
	for i, pr := range c.prs {
		offs[i] = pr.pos
	}
	if err := os.MkdirAll(c.t.groups, 0o755); err != nil {
		return err
	}
	if err := saveOffsets(c.t.offsetsPath(c.group), offs); err != nil {
		return err
	}
	c.t.m.lagGauge(c.group).Set(float64(c.Lag()))
	return nil
}

// Close detaches the consumer from the topic, releasing its
// backpressure claim. It does not commit.
func (c *Consumer) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.t.delNotify(c.notify)
	for _, pr := range c.prs {
		pr.p.mu.Lock()
		delete(pr.p.readers, pr)
		pr.p.pubWait.Broadcast()
		pr.p.mu.Unlock()
		pr.closeCursor()
	}
}

// nextEvent returns the reader's next event: from the ring, or through
// the segment cursor for positions the ring has evicted.
func (pr *partReader) nextEvent() (Event, bool) {
	p := pr.p
	p.mu.Lock()
	if pr.pos >= p.next {
		p.mu.Unlock()
		return Event{}, false
	}
	if pr.pos >= p.ringLo {
		e := p.ring[pr.pos-p.ringLo]
		if e.cum > pr.readCum {
			pr.readCum = e.cum
			p.pubWait.Broadcast()
		}
		pr.pos++
		p.mu.Unlock()
		pr.closeCursor()
		return e.ev, true
	}
	p.mu.Unlock()

	// Behind the ring. Everything below ringLo is fully framed on disk
	// (frames are written before offsets advance), so what the cursor
	// cannot read there is damage: it resumes at the next segment, and
	// the offsets passed over are counted, never silently missing.
	if pr.cur == nil {
		pr.cur = newSegCursor(p.dir, p.idx)
	}
	if pr.cur.next != pr.pos {
		pr.cur.seek(pr.pos)
	}
	ev, ok := pr.cur.nextEvent()
	if !ok {
		return Event{}, false
	}
	if gap := ev.Seq - pr.pos; gap > 0 {
		p.t.m.skipped.Add(gap)
	}
	pr.pos = ev.Seq + 1
	return ev, true
}

func (pr *partReader) closeCursor() {
	if pr.cur != nil {
		pr.cur.close()
		pr.cur = nil
	}
}

// Offsets file: magic, then one wire frame whose payload is the
// per-partition offsets. Written atomically, so a reader sees the old or
// the new file, never a torn one.
const offMagic = "UBUSOFF1"

func saveOffsets(path string, offs []int64) error {
	buf := wire.BeginFrame([]byte(offMagic))
	buf = binary.AppendUvarint(buf, uint64(len(offs)))
	for _, o := range offs {
		buf = binary.AppendUvarint(buf, uint64(o))
	}
	wire.EndFrame(buf, len(offMagic))
	return wire.WriteFileAtomic(path, buf)
}

// loadOffsets reads a group's committed offsets, returning zeros if the
// group has never committed. n is the expected partition count.
func loadOffsets(path string, n int) ([]int64, error) {
	offs := make([]int64, n)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return offs, nil
	}
	if err != nil {
		return nil, err
	}
	body, ok := bytes.CutPrefix(data, []byte(offMagic))
	br := bytes.NewReader(body)
	payload, err := wire.ReadFrame(br, len(body), nil)
	if !ok || err != nil || br.Len() != 0 {
		return nil, fmt.Errorf("bus: %s: %w", path, ErrCorrupt)
	}
	r := wire.NewReader(payload)
	cnt := r.Uvarint()
	if r.Err() != nil || cnt != uint64(n) {
		return nil, fmt.Errorf("bus: %s: offset count %d, want %d: %w", path, cnt, n, ErrCorrupt)
	}
	for i := range offs {
		offs[i] = int64(r.Uvarint())
	}
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, fmt.Errorf("bus: %s: %w", path, ErrCorrupt)
	}
	return offs, nil
}
