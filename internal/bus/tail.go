// Tailer: a read-only, cross-process follower of one topic.
//
// A Tailer never talks to the owning Broker — it watches the segment
// files directly, which is what lets `analyze -follow` and `bustail`
// attach to a live uberd from another process. The write path makes this
// safe to poll, and each partition is read through the same segment
// cursor (cursor.go) the broker's own readers use.
//
// Tailers exert no backpressure (they are not attached readers); they
// are observers, not participants.

package bus

import (
	"path/filepath"
	"strconv"
)

// Tailer follows one topic's partitions read-only. Not safe for
// concurrent use.
type Tailer struct {
	curs []*segCursor
}

// OpenTail opens a follower over <busdir>/<topic>, starting at each
// partition's first retained event. The topic must exist (its TOPIC.json
// written), which it is as soon as the publishing process opened it.
func OpenTail(busDir, topic string) (*Tailer, error) {
	dir := filepath.Join(busDir, topic)
	meta, err := readTopicMeta(dir)
	if err != nil {
		return nil, err
	}
	t := &Tailer{}
	for k := 0; k < meta.Partitions; k++ {
		t.curs = append(t.curs, newSegCursor(filepath.Join(dir, "p"+strconv.Itoa(k)), k))
	}
	return t, nil
}

// Poll appends every newly readable event (across all partitions, in
// per-partition order) to dst and returns the extended slice. It never
// blocks; an empty poll means no complete new frames yet.
func (t *Tailer) Poll(dst []Event) []Event {
	for _, c := range t.curs {
		for ev, ok := c.nextEvent(); ok; ev, ok = c.nextEvent() {
			dst = append(dst, ev)
		}
	}
	return dst
}

// Close releases the tailer's file handles.
func (t *Tailer) Close() {
	for _, c := range t.curs {
		c.close()
	}
}
