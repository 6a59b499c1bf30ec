package wire

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// The frame is how both logs (the tsdb WAL, the bus segments) and the
// bus offsets file delimit a record:
//
//	len u32 ‖ crc32(payload) u32 ‖ payload      (little-endian, IEEE CRC)
//
// A writer frames in place: BeginFrame reserves the header at the end of
// its scratch buffer, the payload codec appends after it, EndFrame
// patches the header, and the whole frame goes out in one Write.

// FrameHeader is the size of the length + CRC prefix.
const FrameHeader = 8

// ErrTorn is ReadFrame's report of input that stops or goes wrong inside
// a frame — what a crash mid-append leaves at the tail of a log.
var ErrTorn = errors.New("wire: torn frame")

// BeginFrame reserves a frame header at the end of buf; the caller
// appends the payload to the result and then calls EndFrame.
func BeginFrame(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// EndFrame completes the frame BeginFrame started at buf[start:] by
// patching the length and CRC of everything appended since.
func EndFrame(buf []byte, start int) {
	payload := buf[start+FrameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// ReadFrame reads one frame from r and returns its payload, stored in
// buf when it fits (pass the previous payload back to reuse its space).
// The error is io.EOF when r ends exactly on a frame boundary, and
// ErrTorn for a partial header, a length over max, a payload r cannot
// back, or a CRC mismatch; the length is checked against max before
// anything is allocated for it. Other read errors pass through.
func ReadFrame(r io.Reader, max int, buf []byte) ([]byte, error) {
	// The header is read into buf too (a local array would escape through
	// the io.Reader call, one allocation per frame).
	if cap(buf) < FrameHeader {
		buf = make([]byte, FrameHeader)
	}
	hdr := buf[:FrameHeader]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = ErrTorn
		}
		return nil, err
	}
	n, crc := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])
	if uint64(n) > uint64(max) {
		return nil, ErrTorn
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = ErrTorn // the header promised a payload
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return nil, ErrTorn
	}
	return buf, nil
}
