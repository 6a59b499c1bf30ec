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

// Consumer is one group's cursor over a topic: its offset and a segment
// cursor, like a Tailer's. It is not safe for concurrent use (one
// goroutine drives a consumer).
type Consumer struct {
	t     *Topic
	group string
	lag   *obs.Gauge // bus_consumer_lag_events, set at each Commit

	pos int64 // next offset to deliver
	cur *segCursor
}

// Subscribe opens the group's cursor over the topic, resuming from its
// committed offset (zero for a new group).
func (t *Topic) Subscribe(group string) (*Consumer, error) {
	pos, err := loadOffset(t.offsetPath(group))
	if err != nil {
		return nil, err
	}
	// An offset ahead of the log (a copied offsets file, a wiped topic
	// dir): clamp rather than stall forever.
	end, _ := t.end()
	pos = min(pos, end)
	lag := t.reg.Gauge("bus_consumer_lag_events", obs.L("topic", t.name), obs.L("group", group))
	return &Consumer{t: t, group: group, lag: lag, pos: pos, cur: newSegCursor(t.dir)}, nil
}

func (t *Topic) offsetPath(group string) string {
	return filepath.Join(t.dir, "groups", group+".off")
}

// TryNext returns the next event if one is readable.
func (c *Consumer) TryNext() (Event, bool) {
	end, _ := c.t.end()
	return c.readBelow(end)
}

// Next blocks until an event is readable or the broker is closed with
// nothing left to drain, in which case ok is false. What the cursor
// cannot read below the topic's end (damage in the active segment) it
// waits out for the log to grow, rather than spinning on it.
func (c *Consumer) Next() (Event, bool) {
	for {
		end, closed := c.t.end()
		if ev, ok := c.readBelow(end); ok || closed {
			return ev, ok
		}
		c.t.waitPast(end)
	}
}

// readBelow delivers the next event through the cursor if the consumer's
// position is below end, a topic end it read earlier; it reads without
// the topic's lock. Everything below the end is fully framed on disk
// (frames are written before the end advances), so what the cursor cannot
// read there is damage: it resumes at the next segment, and the offsets
// passed over are counted, never silently missing.
func (c *Consumer) readBelow(end int64) (Event, bool) {
	if c.pos >= end {
		return Event{}, false
	}
	if c.cur.next != c.pos {
		c.cur.seek(c.pos)
	}
	ev, ok := c.cur.nextEvent()
	if !ok {
		return Event{}, false
	}
	if gap := ev.Seq - c.pos; gap > 0 {
		c.t.skipped.Add(gap)
	}
	c.pos = ev.Seq + 1
	return ev, true
}

// end returns the offset the next publish gets and whether the topic is
// closed.
func (t *Topic) end() (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next, t.closed
}

// waitPast blocks until the topic's end moves past end or the topic is
// closed.
func (t *Topic) waitPast(end int64) {
	t.mu.Lock()
	for t.next == end && !t.closed {
		t.grew.Wait()
	}
	t.mu.Unlock()
}

// Lag returns how many published events the consumer has not yet
// delivered.
func (c *Consumer) Lag() int64 {
	end, _ := c.t.end()
	return end - c.pos
}

// Commit durably records the consumer's position. Events delivered
// before Commit will not be redelivered after a restart; events
// delivered after the last Commit will be (at-least-once).
func (c *Consumer) Commit() error {
	if err := saveOffset(c.t.offsetPath(c.group), c.pos); err != nil {
		return err
	}
	c.lag.Set(float64(c.Lag()))
	return nil
}

// Close releases the consumer's file handles. It does not commit.
func (c *Consumer) Close() { c.cur.close() }

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
