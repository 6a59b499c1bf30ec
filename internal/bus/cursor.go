// The segment cursor: the one path from segment files to Events.
//
// Recovery (Broker.Topic), consumer groups (Consumer) and the
// cross-process Tailer all read through it, so one rule holds for every
// reader: a segment yields its intact prefix, and once a segment with a
// higher base exists the cursor resumes at that base — whatever is
// unreadable in between (a crash's torn tail, a damaged frame and
// everything after it, whose dictionary state is lost) is skipped,
// visible to the caller as a jump in Seq. The write path makes polling
// safe: every frame is appended with a single write call, so a read
// either sees a complete frame or an incomplete tail that will be
// complete on a later read.

package bus

import (
	"bufio"
	"io"
	"math"
	"os"

	"repro/internal/wire"
)

type segCursor struct {
	dir string

	src     io.ReaderAt // the open segment (nil before the first)
	br      *bufio.Reader
	segBase int64 // base offset of the open segment (-1 before the first)
	off     int64 // byte offset of the next frame in that segment
	next    int64 // offset of the next event to deliver
	dict    *decDict
	buf     []byte // frame payload scratch
}

func newSegCursor(dir string) *segCursor {
	return &segCursor{dir: dir, segBase: -1}
}

// attach points the cursor at the first frame of a segment whose first
// event is base. It reports false, changing nothing, if src does not
// start with the magic (a segment whose header is not fully written yet).
func (c *segCursor) attach(src io.ReaderAt, base int64) bool {
	var magic [len(segMagic)]byte
	if n, _ := src.ReadAt(magic[:], 0); n != len(magic) || string(magic[:]) != segMagic {
		return false
	}
	c.src, c.segBase, c.off, c.dict = src, base, int64(len(segMagic)), newDecDict()
	if c.next < base {
		c.next = base
	}
	c.rewind()
	return true
}

// rewind points the buffered reader at off, dropping any read-ahead.
func (c *segCursor) rewind() {
	sec := io.NewSectionReader(c.src, c.off, math.MaxInt64-c.off)
	if c.br == nil {
		c.br = bufio.NewReader(sec)
	} else {
		c.br.Reset(sec)
	}
}

func (c *segCursor) close() {
	if f, ok := c.src.(io.Closer); ok {
		f.Close()
	}
	c.src = nil
}

// readFrame decodes the frame at off. Anything short of a complete,
// intact, decodable frame leaves the cursor unmoved, to be retried.
func (c *segCursor) readFrame() (Event, bool) {
	payload, err := wire.ReadFrame(c.br, maxFramePayload, c.buf)
	if err == nil {
		c.buf = payload
		var ev Event
		if ev, err = decodeEvent(payload, c.dict); err == nil {
			ev.Seq = c.next
			c.next++
			c.off += int64(wire.FrameHeader + len(payload))
			return ev, true
		}
	}
	c.rewind()
	return Event{}, false
}

// nextEvent returns the next readable event, moving on to the following
// segment when the open one has nothing more to give and a newer one
// exists. It never blocks; false means no complete new frame yet.
func (c *segCursor) nextEvent() (Event, bool) {
	for {
		if c.src != nil {
			// The buffered reader keeps an io.EOF it hit before later
			// frames landed. A failed readFrame has rewound, so the
			// second read sees the file as it is now; without it a
			// consumer waits forever for frames already written.
			for range 2 {
				if ev, ok := c.readFrame(); ok {
					return ev, true
				}
			}
		}
		seg, ok := c.segmentAfter()
		if !ok {
			return Event{}, false
		}
		if c.src != nil {
			// A newer segment exists, so this one is sealed — and it was
			// sealed before the newer one was created, so one more read
			// sees every frame it will ever hold (the publisher may have
			// appended and rolled between the read above and the listing).
			if ev, ok := c.readFrame(); ok {
				return ev, true
			}
			c.close()
		}
		f, err := os.Open(seg.path)
		if err != nil {
			return Event{}, false
		}
		if !c.attach(f, seg.base) {
			f.Close()
			return Event{}, false
		}
	}
}

// segmentAfter finds the first segment past the one the cursor is on.
func (c *segCursor) segmentAfter() (segInfo, bool) {
	segs, _ := listSegments(c.dir)
	for _, s := range segs {
		if s.base > c.segBase {
			return s, true
		}
	}
	return segInfo{}, false
}

// seek positions the cursor so that the next event delivered is the
// first readable one at or after pos: it opens the segment with the last
// base ≤ pos and decodes forward (the dictionary has to be replayed).
func (c *segCursor) seek(pos int64) {
	c.close()
	segs, _ := listSegments(c.dir)
	c.segBase, c.next = -1, 0
	for _, s := range segs {
		if s.base <= pos {
			c.segBase = s.base - 1
		}
	}
	for c.next < pos {
		if _, ok := c.nextEvent(); !ok {
			return
		}
	}
}
