// Tailer: a read-only, cross-process follower of one topic.
//
// A Tailer never talks to the owning Broker — it watches the segment
// files directly, which is what lets `analyze -follow` and `bustail`
// attach to a live uberd from another process. The write path makes this
// safe to poll, and the log is read through the same segment cursor
// (cursor.go) the broker's own readers use.

package bus

import "path/filepath"

// Tailer follows one topic read-only. Not safe for concurrent use.
type Tailer struct {
	cur *segCursor
}

// OpenTail opens a follower over <busDir>/<topic>, starting at the
// topic's first retained event. The topic directory must exist, which it
// does as soon as the publishing process opened the topic, and not be of
// the older partitioned layout.
func OpenTail(busDir, topic string) (*Tailer, error) {
	dir := filepath.Join(busDir, topic)
	if _, err := listSegments(dir); err != nil {
		return nil, err
	}
	return &Tailer{cur: newSegCursor(dir)}, nil
}

// Poll appends every event readable now, in publish order, to dst and
// returns the extended slice. It never blocks; an empty poll means no
// complete new frames yet.
func (t *Tailer) Poll(dst []Event) []Event {
	for ev, ok := t.cur.nextEvent(); ok; ev, ok = t.cur.nextEvent() {
		dst = append(dst, ev)
	}
	return dst
}

// Close releases the tailer's file handles.
func (t *Tailer) Close() { t.cur.close() }
