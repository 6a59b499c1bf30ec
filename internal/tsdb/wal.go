// The write-ahead log protecting the in-memory head.
//
// Layout:
//
//	magic "TSDBWAL1" (8 bytes) ‖ seq u64
//	record*: one wire frame (len u32 ‖ crc32 u32 ‖ payload) per row, row.go codec
//
// seq is the seal sequence number the head will become. Sealing writes the
// segment durably FIRST and only then starts a fresh WAL with seq+1, so a
// crash between the two leaves a WAL whose seq names an existing segment —
// recovery detects that and discards the stale WAL instead of replaying
// duplicates.
//
// Appends are buffered; DB.Commit flushes and fsyncs, so one fsync covers
// a whole ping round — the fsync-batched write path.
// Recovery replays records until the first bad length/CRC, truncates the
// torn tail, and resumes appending from there.

package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/wire"
)

const walMagic = "TSDBWAL1"

const walHeaderSize = 16

// maxWALRecord bounds a record's payload length during recovery so a
// corrupt length prefix cannot drive a giant allocation.
const maxWALRecord = 1 << 24

type walWriter struct {
	f       *os.File
	bw      *bufio.Writer
	seq     uint64
	bytes   uint64 // bytes appended (records only)
	scratch []byte
}

// createWAL starts a fresh WAL (truncating any existing file) and makes
// its header durable.
func createWAL(path string, seq uint64) (*walWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), seq: seq}, nil
}

func (w *walWriter) append(row *Row) error {
	w.scratch = appendRowBinary(wire.BeginFrame(w.scratch[:0]), row)
	wire.EndFrame(w.scratch, 0)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.bytes += uint64(len(w.scratch))
	return nil
}

func (w *walWriter) sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *walWriter) close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// walScanResult is what recovery learned from an existing WAL file.
type walScanResult struct {
	seq      uint64
	rows     []Row
	goodSize int64 // file offset after the last intact record
	torn     bool  // a truncated/corrupt tail was dropped
}

// scanWAL reads every intact record. It returns os.ErrNotExist if the file
// is missing and ErrCorrupt only if the header itself is unreadable.
func scanWAL(path string) (*walScanResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tsdb: %s: wal header: %w", path, ErrCorrupt)
	}
	if string(hdr[:8]) != walMagic {
		return nil, fmt.Errorf("tsdb: %s: wal magic: %w", path, ErrCorrupt)
	}
	res := &walScanResult{seq: binary.LittleEndian.Uint64(hdr[8:]), goodSize: walHeaderSize}
	payload := make([]byte, 0, 4096)
	for {
		payload, err = wire.ReadFrame(br, maxWALRecord, payload)
		if err != nil {
			res.torn = err != io.EOF
			return res, nil
		}
		row, err := decodeRowBinary(payload)
		if err != nil || len(res.rows) >= maxRowsPerWAL {
			res.torn = true
			return res, nil
		}
		res.rows = append(res.rows, row)
		res.goodSize += int64(wire.FrameHeader + len(payload))
	}
}

// resumeWAL opens an existing WAL for appending after recovery, truncating
// any torn tail first.
func resumeWAL(path string, res *walScanResult) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(res.goodSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(res.goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{
		f:     f,
		bw:    bufio.NewWriterSize(f, 1<<16),
		seq:   res.seq,
		bytes: uint64(res.goodSize - walHeaderSize),
	}, nil
}
