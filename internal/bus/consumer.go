// Consumer groups: named cursors over a topic with committed offsets
// that survive restart.
//
// A group is a file holding one offset, committed atomically
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

// Consumer is one group's cursor over a topic. It is not safe for
// concurrent use (one goroutine drives a consumer).
type Consumer struct {
	t      *Topic
	group  string
	notify chan struct{}
	mCons  *obs.Counter
	closed bool

	pos int64 // next offset to deliver
	// readCum is the backpressure watermark: the cumulative-bytes value
	// of the newest ring event this consumer has consumed, initialized to
	// the topic's watermark at attach (resuming through an old backlog
	// must not stall publishers).
	readCum int64
	// cur reads the segments back while pos is below the ring.
	cur *segCursor
}

// Subscribe opens the group's cursor over the topic, resuming from its
// committed offset (zero for a new group).
func (t *Topic) Subscribe(group string) (*Consumer, error) {
	pos, err := loadOffset(t.offsetPath(group))
	if err != nil {
		return nil, err
	}
	c := &Consumer{
		t:      t,
		group:  group,
		notify: make(chan struct{}, 1),
		mCons:  t.m.consumed(group),
	}
	t.mu.Lock()
	// An offset ahead of the log (a copied offsets file, a wiped topic
	// dir): clamp rather than stall forever.
	c.pos = min(pos, t.next)
	c.readCum = t.cum
	t.readers[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

func (t *Topic) offsetPath(group string) string {
	return filepath.Join(t.dir, "groups", group+".off")
}

// TryNext returns the next event if one is available: from the ring, or
// through the segment cursor for positions the ring has evicted.
func (c *Consumer) TryNext() (Event, bool) {
	t := c.t
	t.mu.Lock()
	if c.pos >= t.next {
		t.mu.Unlock()
		return Event{}, false
	}
	if c.pos >= t.ringLo {
		e := t.ring[c.pos-t.ringLo]
		if e.cum > c.readCum {
			c.readCum = e.cum
			t.pubWait.Broadcast()
		}
		c.pos++
		t.mu.Unlock()
		c.closeCursor()
		c.mCons.Inc()
		return e.ev, true
	}
	t.mu.Unlock()

	// Behind the ring. Everything below ringLo is fully framed on disk
	// (frames are written before offsets advance), so what the cursor
	// cannot read there is damage: it resumes at the next segment, and
	// the offsets passed over are counted, never silently missing.
	if c.cur == nil {
		c.cur = newSegCursor(t.dir)
	}
	if c.cur.next != c.pos {
		c.cur.seek(c.pos)
	}
	ev, ok := c.cur.nextEvent()
	if !ok {
		return Event{}, false
	}
	if gap := ev.Seq - c.pos; gap > 0 {
		t.m.skipped.Add(gap)
	}
	c.pos = ev.Seq + 1
	c.mCons.Inc()
	return ev, true
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
// delivered.
func (c *Consumer) Lag() int64 {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return c.t.next - c.pos
}

// Commit durably records the consumer's position. Events delivered
// before Commit will not be redelivered after a restart; events
// delivered after the last Commit will be (at-least-once).
func (c *Consumer) Commit() error {
	if err := saveOffset(c.t.offsetPath(c.group), c.pos); err != nil {
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
	c.t.mu.Lock()
	delete(c.t.readers, c)
	c.t.pubWait.Broadcast()
	c.t.mu.Unlock()
	c.closeCursor()
}

func (c *Consumer) closeCursor() {
	if c.cur != nil {
		c.cur.close()
		c.cur = nil
	}
}

// Offsets file: magic, then one wire frame whose payload is the offset.
// Written atomically, so a reader sees the old or the new file, never a
// torn one.
const offMagic = "UBUSOFF1"

func saveOffset(path string, off int64) error {
	buf := wire.BeginFrame([]byte(offMagic))
	buf = binary.AppendUvarint(buf, uint64(off))
	wire.EndFrame(buf, len(offMagic))
	return wire.WriteFileAtomic(path, buf)
}

// loadOffset reads a group's committed offset, returning zero if the
// group has never committed. A file of the partitioned layout, which
// held a count and then one offset per partition, is corrupt here.
func loadOffset(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	body, ok := bytes.CutPrefix(data, []byte(offMagic))
	br := bytes.NewReader(body)
	payload, err := wire.ReadFrame(br, len(body), nil)
	if !ok || err != nil || br.Len() != 0 {
		return 0, fmt.Errorf("bus: %s: %w", path, ErrCorrupt)
	}
	r := wire.NewReader(payload)
	off := int64(r.Uvarint())
	if r.Err() != nil || r.Remaining() != 0 {
		return 0, fmt.Errorf("bus: %s: %w", path, ErrCorrupt)
	}
	return off, nil
}
