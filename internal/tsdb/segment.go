// Sealed immutable segment files.
//
// Layout:
//
//	magic "TSDBSEG1"                          (8 bytes)
//	chunk*: payload ‖ crc32(payload)          (offsets recorded in index)
//	index:  per-chunk (series, offset, len, minT, maxT, rows)
//	footer: indexOff u64 ‖ indexLen u32 ‖ indexCRC u32 ‖
//	        fileCRC u32 ‖ magic u32           (24 bytes, little-endian)
//
// fileCRC covers every byte before it, so tsdbtool verify detects a single
// flipped byte anywhere in the file; per-chunk CRCs localize the damage
// and protect normal reads without re-hashing the whole file.
//
// The index is the sparse time index: chunks are ≤ chunkRows rows, so
// Query(series, from, to) binary-searches the per-series chunk list and
// decodes only chunks overlapping [from, to).
//
// File names are <lo>-<hi>.seg where lo..hi is the range of seal sequence
// numbers the file covers (lo == hi for a freshly sealed head; wider after
// compaction). A file whose range is contained in another's is an
// already-replaced compaction input left behind by a crash and is ignored.

package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/wire"
)

const (
	segMagic    = "TSDBSEG1"
	footerMagic = uint32(0x42445354) // "TSDB"
	footerSize  = 24
)

type chunkEntry struct {
	series     int
	offset     uint64 // of the payload, from file start
	length     uint64 // payload bytes (CRC excluded)
	minT, maxT int64
	rows       uint64
}

// ---- writer ----

// crcFileWriter tracks a running CRC and offset over everything written
// through its buffer.
type crcFileWriter struct {
	f   *os.File
	w   *bufio.Writer
	crc uint32
	off uint64
}

func (c *crcFileWriter) write(p []byte) error {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	c.off += uint64(len(p))
	_, err := c.w.Write(p)
	return err
}

// segmentWriter streams encoded chunks into a segment file. Chunks of a
// series must arrive in time order, and series in ascending order.
type segmentWriter struct {
	cw      *crcFileWriter
	entries []chunkEntry
}

// writeSegment writes the chunks fill adds into a new segment file at
// path, fsyncs it and renames it into place. On any error the temp file
// is closed and removed.
func writeSegment(path string, fill func(*segmentWriter) error) (retErr error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	sw := &segmentWriter{cw: &crcFileWriter{f: f, w: bufio.NewWriterSize(f, 1<<20)}}
	defer func() {
		if retErr != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err := sw.cw.write([]byte(segMagic)); err != nil {
		return err
	}
	if err := fill(sw); err != nil {
		return err
	}
	if err := sw.finish(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	wire.SyncDir(filepath.Dir(path))
	return nil
}

// addChunk appends one encoded chunk of series and its CRC, and indexes
// it.
func (sw *segmentWriter) addChunk(series int, payload []byte, minT, maxT int64, rows int) error {
	if n := len(sw.entries); n > 0 && series < sw.entries[n-1].series {
		return fmt.Errorf("tsdb: segment writer: series out of order")
	}
	e := chunkEntry{
		series: series,
		offset: sw.cw.off,
		length: uint64(len(payload)),
		minT:   minT,
		maxT:   maxT,
		rows:   uint64(rows),
	}
	if err := sw.cw.write(payload); err != nil {
		return err
	}
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(payload))
	if err := sw.cw.write(crcb[:]); err != nil {
		return err
	}
	sw.entries = append(sw.entries, e)
	return nil
}

// finish writes the index and footer, then fsyncs and closes the file.
func (sw *segmentWriter) finish() error {
	var idx []byte
	idx = binary.AppendUvarint(idx, uint64(len(sw.entries)))
	for _, e := range sw.entries {
		idx = binary.AppendUvarint(idx, uint64(e.series))
		idx = binary.AppendUvarint(idx, e.offset)
		idx = binary.AppendUvarint(idx, e.length)
		idx = binary.AppendUvarint(idx, wire.Zigzag(e.minT))
		idx = binary.AppendUvarint(idx, wire.Zigzag(e.maxT))
		idx = binary.AppendUvarint(idx, e.rows)
	}
	idxOff := sw.cw.off
	if err := sw.cw.write(idx); err != nil {
		return err
	}
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:], idxOff)
	binary.LittleEndian.PutUint32(ftr[8:], uint32(len(idx)))
	binary.LittleEndian.PutUint32(ftr[12:], crc32.ChecksumIEEE(idx))
	// The file CRC covers everything up to and including the first 16
	// footer bytes; the final 8 bytes are the CRC itself plus the magic.
	if err := sw.cw.write(ftr[:16]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(ftr[16:], sw.cw.crc)
	binary.LittleEndian.PutUint32(ftr[20:], footerMagic)
	if _, err := sw.cw.w.Write(ftr[16:]); err != nil {
		return err
	}
	if err := sw.cw.w.Flush(); err != nil {
		return err
	}
	if err := sw.cw.f.Sync(); err != nil {
		return err
	}
	return sw.cw.f.Close()
}

// ---- reader ----

type segmentReader struct {
	f      *os.File
	path   string
	lo, hi uint64 // seal-sequence range from the file name
	size   int64
	rows   uint64
	minT   int64
	maxT   int64
	// bySeries maps series → its chunk entries in time order.
	bySeries map[int][]chunkEntry
	series   []int // sorted
}

// openSegment reads and validates the footer and index. Chunk payloads are
// read lazily; their CRCs are checked on every read.
func openSegment(path string, lo, hi uint64) (*segmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr := &segmentReader{f: f, path: path, lo: lo, hi: hi, bySeries: make(map[int][]chunkEntry)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.size = st.Size()
	if sr.size < int64(len(segMagic))+footerSize {
		f.Close()
		return nil, fmt.Errorf("tsdb: %s: too short: %w", path, ErrCorrupt)
	}
	var ftr [footerSize]byte
	if _, err := f.ReadAt(ftr[:], sr.size-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(ftr[20:]) != footerMagic {
		f.Close()
		return nil, fmt.Errorf("tsdb: %s: bad footer magic: %w", path, ErrCorrupt)
	}
	idxOff := binary.LittleEndian.Uint64(ftr[0:])
	idxLen := binary.LittleEndian.Uint32(ftr[8:])
	idxCRC := binary.LittleEndian.Uint32(ftr[12:])
	if idxOff < uint64(len(segMagic)) || idxOff+uint64(idxLen) != uint64(sr.size)-footerSize {
		f.Close()
		return nil, fmt.Errorf("tsdb: %s: bad index bounds: %w", path, ErrCorrupt)
	}
	idx := make([]byte, idxLen)
	if _, err := f.ReadAt(idx, int64(idxOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.ChecksumIEEE(idx) != idxCRC {
		f.Close()
		return nil, fmt.Errorf("tsdb: %s: index CRC mismatch: %w", path, ErrCorrupt)
	}
	r := wire.NewReader(idx)
	n := r.Uvarint()
	if r.Err() != nil || n > uint64(len(idx)) {
		f.Close()
		return nil, fmt.Errorf("tsdb: %s: bad index: %w", path, ErrCorrupt)
	}
	sr.minT, sr.maxT = int64(1)<<62, -(int64(1) << 62)
	for i := uint64(0); i < n; i++ {
		e := chunkEntry{
			series: int(r.Uvarint()),
			offset: r.Uvarint(),
			length: r.Uvarint(),
			minT:   r.Varint(),
			maxT:   r.Varint(),
			rows:   r.Uvarint(),
		}
		if r.Err() != nil || e.offset+e.length+4 > idxOff || e.rows == 0 {
			f.Close()
			return nil, fmt.Errorf("tsdb: %s: bad index entry: %w", path, ErrCorrupt)
		}
		if _, seen := sr.bySeries[e.series]; !seen {
			sr.series = append(sr.series, e.series)
		}
		sr.bySeries[e.series] = append(sr.bySeries[e.series], e)
		sr.rows += e.rows
		if e.minT < sr.minT {
			sr.minT = e.minT
		}
		if e.maxT > sr.maxT {
			sr.maxT = e.maxT
		}
	}
	sort.Ints(sr.series)
	return sr, nil
}

// chunk reads e's chunk into d's read buffer, CRC-checks it, decodes it
// into d and checks its row count against the index.
func (sr *segmentReader) chunk(d *chunkDecoder, e chunkEntry) error {
	d.read = resize(d.read, int(e.length+4))
	buf := d.read
	if _, err := sr.f.ReadAt(buf, int64(e.offset)); err != nil {
		return fmt.Errorf("tsdb: %s: read chunk at %d: %w", sr.path, e.offset, err)
	}
	payload := buf[:e.length]
	want := binary.LittleEndian.Uint32(buf[e.length:])
	if crc32.ChecksumIEEE(payload) != want {
		return fmt.Errorf("tsdb: %s: chunk CRC mismatch at offset %d: %w", sr.path, e.offset, ErrCorrupt)
	}
	if err := d.decode(payload, e.series); err != nil {
		return fmt.Errorf("tsdb: %s: chunk at offset %d: %w", sr.path, e.offset, err)
	}
	if uint64(d.n) != e.rows {
		return fmt.Errorf("tsdb: %s: chunk at offset %d: row count mismatch: %w", sr.path, e.offset, ErrCorrupt)
	}
	return nil
}

// overlapping returns the chunk entries of series that intersect [from, to).
func (sr *segmentReader) overlapping(series int, from, to int64) []chunkEntry {
	entries := sr.bySeries[series]
	// Entries are in time order; find the first with maxT >= from.
	i := sort.Search(len(entries), func(i int) bool { return entries[i].maxT >= from })
	j := i
	for j < len(entries) && entries[j].minT < to {
		j++
	}
	return entries[i:j]
}

func (sr *segmentReader) close() error { return sr.f.Close() }

// verifyFileCRC re-reads the whole file and checks the footer CRC: the
// single-flipped-byte detector behind `tsdbtool verify`.
func (sr *segmentReader) verifyFileCRC() error {
	if _, err := sr.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	h := crc32.NewIEEE()
	if _, err := io.CopyN(h, sr.f, sr.size-8); err != nil {
		return err
	}
	var tail [8]byte
	if _, err := sr.f.ReadAt(tail[:], sr.size-8); err != nil {
		return err
	}
	if h.Sum32() != binary.LittleEndian.Uint32(tail[:4]) {
		return fmt.Errorf("tsdb: %s: file CRC mismatch: %w", sr.path, ErrCorrupt)
	}
	return nil
}

// ---- file naming ----

func segFileName(lo, hi uint64) string { return fmt.Sprintf("%08d-%08d.seg", lo, hi) }

// parseSegName parses "<lo>-<hi>.seg"; ok is false for anything else.
func parseSegName(name string) (lo, hi uint64, ok bool) {
	base, found := strings.CutSuffix(name, ".seg")
	if !found {
		return 0, 0, false
	}
	loS, hiS, found := strings.Cut(base, "-")
	if !found {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(loS, "%d", &lo); err != nil {
		return 0, 0, false
	}
	if _, err := fmt.Sscanf(hiS, "%d", &hi); err != nil {
		return 0, 0, false
	}
	return lo, hi, lo <= hi
}
