package tsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// collect drains an iterator, deep-copying each lent row.
func collect(t *testing.T, it *Iterator) []Row {
	t.Helper()
	var out []Row
	for it.Next() {
		out = append(out, cloneRow(it.Row()))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

// requireByteEqual asserts two row slices are identical under the
// canonical binary encoding — the acceptance bar for round trips.
func requireByteEqual(t *testing.T, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	var a, b []byte
	for i := range want {
		a = appendRowBinary(a[:0], &got[i])
		b = appendRowBinary(b[:0], &want[i])
		if string(a) != string(b) {
			t.Fatalf("row %d not byte-equal:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// campaignRows returns n rounds of nSeries clients (5s ping clock,
// occasional gap rows) in append order: round by round, series ascending.
// That is also the order QueryAll yields them in.
func campaignRows(rng *rand.Rand, nSeries, rounds int, start int64) []Row {
	perSeries := make([][]Row, nSeries)
	for s := range perSeries {
		perSeries[s] = randomRows(rng, s, rounds, start)
	}
	all := make([]Row, 0, nSeries*rounds)
	for i := 0; i < rounds; i++ {
		for s := range perSeries {
			all = append(all, perSeries[s][i])
		}
	}
	return all
}

// appendCampaign appends rows of nSeries clients, committing after every
// round like the measurement loop.
func appendCampaign(t *testing.T, db *DB, nSeries int, rows []Row) {
	t.Helper()
	for i, row := range rows {
		if err := db.Append(row); err != nil {
			t.Fatalf("append: %v", err)
		}
		if (i+1)%nSeries == 0 {
			if err := db.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
}

// campaign writes n rounds of nSeries clients into db and returns them.
func campaign(t *testing.T, db *DB, rng *rand.Rand, nSeries, rounds int, start int64) []Row {
	t.Helper()
	all := campaignRows(rng, nSeries, rounds, start)
	appendCampaign(t, db, nSeries, all)
	return all
}

// crash drops the DB's file handles without sealing or flushing buffered
// WAL bytes — what a kill -9 leaves behind.
func crash(db *DB) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, sr := range db.segs {
		sr.close()
	}
	for _, sr := range db.graveyard {
		sr.close()
	}
	if db.wal != nil {
		db.wal.f.Close() // bufio buffer is lost, like an OS crash
		db.wal = nil
	}
	db.segs, db.graveyard = nil, nil
	db.closed = true
}

func TestRoundTripCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Extra: []byte(`{"city":"sf"}`)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	want := campaign(t, db, rng, 5, 300, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() != 0 {
		t.Fatalf("clean close recovered %d rows from WAL, want 0", db2.Recovered())
	}
	if string(db2.Extra()) != `{"city":"sf"}` {
		t.Fatalf("Extra = %s", db2.Extra())
	}
	got := collect(t, db2.QueryAll(-1<<62, 1<<62))
	requireByteEqual(t, got, want)

	// Per-series queries return the same rows partitioned by series.
	var bySeries []Row
	for _, s := range db2.Series() {
		bySeries = append(bySeries, collect(t, db2.Query(s, -1<<62, 1<<62))...)
	}
	if len(bySeries) != len(want) {
		t.Fatalf("per-series total %d, want %d", len(bySeries), len(want))
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	// Small head so some rows are sealed and some live only in the WAL.
	db, err := Open(dir, Options{HeadMaxRows: 400})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	want := campaign(t, db, rng, 4, 250, 0)
	// A few appends after the last commit: buffered only, lost in the crash.
	lost := Row{Time: 1e9, Series: 0, Gap: true, Reason: "uncommitted"}
	if err := db.Append(lost); err != nil {
		t.Fatal(err)
	}
	crash(db)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() == 0 {
		t.Fatal("crash recovery replayed 0 WAL rows; test should exercise the WAL")
	}
	got := collect(t, db2.QueryAll(-1<<62, 1<<62))
	requireByteEqual(t, got, want)
}

func TestCrashAllInWAL(t *testing.T) {
	// Everything in the head: no segment ever sealed.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	want := campaign(t, db, rng, 3, 40, 100)
	crash(db)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() != len(want) {
		t.Fatalf("recovered %d rows, want %d", db2.Recovered(), len(want))
	}
	requireByteEqual(t, collect(t, db2.QueryAll(-1<<62, 1<<62)), want)
}

func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	want := campaign(t, db, rng, 2, 30, 0)
	crash(db)

	// Tear the tail mid-record, as if the machine died during a write.
	walPath := filepath.Join(dir, "wal", "head.wal")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-11); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, db2.QueryAll(-1<<62, 1<<62))
	// The torn record (and only it) is gone.
	if len(got) != len(want)-1 {
		t.Fatalf("got %d rows after torn tail, want %d", len(got), len(want)-1)
	}
	requireByteEqual(t, got, want[:len(got)])
	// The store keeps working after recovery.
	next := Row{Time: want[len(want)-1].Time + 5, Series: 0}
	if err := db2.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleWALDiscarded(t *testing.T) {
	// Simulate a crash between segment rename and WAL rotation: the WAL's
	// seq names a segment that already exists, so replaying it would
	// duplicate every row.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	want := campaign(t, db, rng, 2, 50, 0)
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	sealedSeq := db.maxSealedSeq()
	crash(db)

	// Fabricate the pre-rotation WAL: same seq as the sealed segment,
	// holding the same rows.
	w, err := createWAL(filepath.Join(dir, "wal", "head.wal"), sealedSeq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if err := w.append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() != 0 {
		t.Fatalf("stale WAL replayed %d rows, want 0", db2.Recovered())
	}
	requireByteEqual(t, collect(t, db2.QueryAll(-1<<62, 1<<62)), want)
}

func TestVerifyDetectsFlippedByte(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	campaign(t, db, rng, 3, 100, 0)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if rep, err := Verify(dir); err != nil {
		t.Fatalf("verify clean store: %v", err)
	} else if len(rep.Segments) != 1 || rep.Rows == 0 {
		t.Fatalf("verify report: %+v", rep)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a single byte in the middle of a chunk payload.
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0x04
	if err := os.WriteFile(segs[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verify after flipped byte: err = %v, want ErrCorrupt", err)
	}

	// Restore, then flip a byte in the index region instead.
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	mut = append([]byte(nil), data...)
	mut[len(mut)-footerSize-2] ^= 0x01
	if err := os.WriteFile(segs[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify accepted corrupted index")
	}
}

// TestAutoSealAndCompaction: the Append whose seal makes the
// compactMinSegments-th segment merges them into one, under a reader
// querying the store all along; Close's seal never compacts.
func TestAutoSealAndCompaction(t *testing.T) {
	const nSeries, perSeal = 4, 100
	want := campaignRows(rand.New(rand.NewSource(16)), nSeries, compactMinSegments*perSeal/nSeries, 0)
	dir := t.TempDir()
	db, err := Open(dir, Options{HeadMaxRows: perSeal})
	if err != nil {
		t.Fatal(err)
	}

	// Whatever the reader sees must be a prefix of the appended rows.
	ctx, stopReader := context.WithCancel(context.Background())
	defer stopReader()
	done := make(chan error, 1)
	go func() {
		var a, b []byte
		for ctx.Err() == nil {
			it := db.QueryAll(-1<<62, 1<<62)
			for i := 0; it.Next(); i++ {
				a, b = appendRowBinary(a[:0], it.Row()), appendRowBinary(b[:0], &want[i])
				if string(a) != string(b) {
					done <- fmt.Errorf("reader: row %d differs from the row appended there", i)
					return
				}
			}
			if err := it.Err(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for seal := 1; seal <= compactMinSegments; seal++ {
		appendCampaign(t, db, nSeries, want[(seal-1)*perSeal:seal*perSeal])
		wantSegs := seal
		if seal == compactMinSegments {
			wantSegs = 1
		}
		if got := db.Stats().Segments; got != wantSegs {
			t.Fatalf("after %d auto-seals: %d segments, want %d", seal, got, wantSegs)
		}
	}
	stopReader()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	requireByteEqual(t, collect(t, db.QueryAll(-1<<62, 1<<62)), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); len(got) != 1 || got[0] != segFileName(1, compactMinSegments) {
		t.Fatalf("segment files %v, want the merged one", got)
	}

	// The merged file survives reopen and verification.
	db2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	requireByteEqual(t, collect(t, db2.QueryAll(-1<<62, 1<<62)), want)
	db2.Close()
	if _, err := Verify(dir); err != nil {
		t.Fatalf("verify after compaction: %v", err)
	}

	// One row past the seventh auto-seal: Close seals it as the eighth
	// segment and leaves all eight.
	dir = t.TempDir()
	db, err = Open(dir, Options{HeadMaxRows: perSeal})
	if err != nil {
		t.Fatal(err)
	}
	some := want[:(compactMinSegments-1)*perSeal+1]
	appendCampaign(t, db, nSeries, some)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := segFiles(t, dir); len(got) != compactMinSegments {
		t.Fatalf("Close's seal left %d segment files, want %d: %v", len(got), compactMinSegments, got)
	}
	db2, err = Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	requireByteEqual(t, collect(t, db2.QueryAll(-1<<62, 1<<62)), some)
}

// TestAutoCompactionErrorCounted: an auto-compaction that fails is
// counted and leaves the seal and its inputs as they are, Append still
// succeeds, and the next auto-seal compacts.
func TestAutoCompactionErrorCounted(t *testing.T) {
	const nSeries, perSeal = 4, 100
	want := campaignRows(rand.New(rand.NewSource(21)), nSeries, (compactMinSegments+1)*perSeal/nSeries, 0)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	db, err := Open(dir, Options{HeadMaxRows: perSeal, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	errs := reg.Counter("tsdb_compaction_errors_total")
	// A directory where the merged file's temp file goes stops the merge.
	blocker := filepath.Join(dir, "seg", segFileName(1, compactMinSegments)+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	appendCampaign(t, db, nSeries, want[:compactMinSegments*perSeal])
	if got := errs.Value(); got != 1 {
		t.Fatalf("compaction errors = %d, want 1", got)
	}
	if got := db.Stats().Segments; got != compactMinSegments {
		t.Fatalf("after a failed compaction: %d segments, want %d", got, compactMinSegments)
	}
	requireByteEqual(t, collect(t, db.QueryAll(-1<<62, 1<<62)), want[:compactMinSegments*perSeal])

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	appendCampaign(t, db, nSeries, want[compactMinSegments*perSeal:])
	if got := db.Stats().Segments; got != 1 {
		t.Fatalf("the next auto-seal left %d segments, want 1", got)
	}
	if got := errs.Value(); got != 1 {
		t.Fatalf("compaction errors = %d, want 1", got)
	}
	requireByteEqual(t, collect(t, db.QueryAll(-1<<62, 1<<62)), want)
}

// segFiles lists the segment files in dir's seg directory.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

func TestCompactionLeftoverCleanedOnOpen(t *testing.T) {
	// A crash can leave a compaction input behind next to the merged file;
	// open must prefer the merged file and ignore (then delete) the input.
	dir := t.TempDir()
	db, err := Open(dir, Options{HeadMaxRows: 60})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	want := campaign(t, db, rng, 2, 120, 0)
	if db.Stats().Segments < 2 {
		t.Fatal("need ≥2 segments for this test")
	}
	// Preserve one input as the "leftover" a crash would leave.
	db.mu.Lock()
	leftoverSrc := db.segs[0].path
	db.mu.Unlock()
	leftoverData, err := os.ReadFile(leftoverSrc)
	if err != nil {
		t.Fatal(err)
	}
	leftoverName := filepath.Base(leftoverSrc)
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, "seg", leftoverName)
	if err := os.WriteFile(leftover, leftoverData, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireByteEqual(t, collect(t, db2.QueryAll(-1<<62, 1<<62)), want)
	db2.Close()
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("leftover input not cleaned up: %v", err)
	}
}

func TestRangeQueryWindow(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{HeadMaxRows: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(18))
	all := campaign(t, db, rng, 3, 200, 0)

	from, to := int64(250), int64(600)
	var want []Row
	for _, r := range all {
		if r.Time >= from && r.Time < to {
			want = append(want, r)
		}
	}
	requireByteEqual(t, collect(t, db.QueryAll(from, to)), want)

	// Empty window, window before data, window after data.
	if rows := collect(t, db.QueryAll(50, 50)); len(rows) != 0 {
		t.Fatalf("empty window returned %d rows", len(rows))
	}
	if rows := collect(t, db.Query(1, -100, 0)); len(rows) != 0 {
		t.Fatalf("pre-data window returned %d rows", len(rows))
	}
}

// TestQueryStopsBeforeDamagedChunk: when a series' next chunk is damaged,
// a query still lends every row, of every series, before that chunk's
// first timestamp, so each round before the damage is whole, and then
// stops with the error. The merge used to drop the row it had just taken
// from the damaged series, and with it the last whole round.
func TestQueryStopsBeforeDamagedChunk(t *testing.T) {
	const nSeries, rounds = 3, 100
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := campaignRows(rand.New(rand.NewSource(26)), nSeries, rounds, 0)
	for _, part := range [][]Row{all[:nSeries*rounds/2], all[nSeries*rounds/2:]} {
		appendCampaign(t, db, nSeries, part)
		if err := db.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("want two segments, have %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff // in series 0's first chunk: payloads follow the magic
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	damagedT := all[nSeries*rounds/2].Time
	for _, w := range []struct {
		name     string
		query    func() *Iterator
		from, to int64
		series   int // -1: every series
	}{
		{"all", func() *Iterator { return db.QueryAll(-1<<62, 1<<62) }, -1 << 62, 1 << 62, -1},
		{"straddling", func() *Iterator { return db.QueryAll(damagedT-50, damagedT+50) }, damagedT - 50, damagedT + 50, -1},
		{"from the damage", func() *Iterator { return db.QueryAll(damagedT, 1<<62) }, damagedT, 1 << 62, -1},
		{"damaged series", func() *Iterator { return db.Query(0, -1<<62, 1<<62) }, -1 << 62, 1 << 62, 0},
	} {
		var want, got []Row
		for _, r := range all {
			if r.Time >= w.from && r.Time < min(w.to, damagedT) && (w.series < 0 || r.Series == w.series) {
				want = append(want, r)
			}
		}
		it := w.query()
		for it.Next() {
			got = append(got, cloneRow(it.Row()))
		}
		if err := it.Err(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", w.name, err)
		}
		requireByteEqual(t, got, want)
		if it.Next() || it.Row() != nil {
			t.Fatalf("%s: the iterator lends rows after its error", w.name)
		}
	}
	// A series whose chunks are intact reads to the end.
	var want []Row
	for _, r := range all {
		if r.Series == 1 {
			want = append(want, r)
		}
	}
	requireByteEqual(t, collect(t, db.Query(1, -1<<62, 1<<62)), want)
}

// TestColumnsSumToChunkPayloads: the sections Columns reports, plus each
// chunk's header, are exactly the chunk payload bytes of the segment
// files: each file less its magic, its chunks' CRCs, its index and its
// footer.
func TestColumnsSumToChunkPayloads(t *testing.T) {
	const nSeries = 4
	dir := t.TempDir()
	db, err := Open(dir, Options{HeadMaxRows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := campaign(t, db, rand.New(rand.NewSource(27)), nSeries, 1000, 0)
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	st, err := db.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i, n := range st.Sections {
		if n <= 0 {
			t.Errorf("section %s holds %d B", ChunkSections[i], n)
		}
		sum += n
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want several segments, have %v (%v)", segs, err)
	}
	var payloads int64
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		idxLen := binary.LittleEndian.Uint32(data[len(data)-footerSize+8:])
		payloads += int64(len(data) - len(segMagic) - footerSize - int(idxLen))
	}
	payloads -= 4 * int64(st.Chunks) // one CRC per chunk
	if sum+st.Headers != payloads {
		t.Errorf("sections %d B + headers %d B = %d B, the segments hold %d B of chunk payloads", sum, st.Headers, sum+st.Headers, payloads)
	}
	if st.Rows != uint64(len(want)) {
		t.Errorf("columns cover %d rows, want %d", st.Rows, len(want))
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Append(Row{Time: 100, Series: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Row{Time: 99, Series: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order append: err = %v", err)
	}
	// Equal timestamps and other series are fine.
	if err := db.Append(Row{Time: 100, Series: 1}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(Row{Time: 50, Series: 2}); err != nil {
		t.Fatal(err)
	}
	// The check survives seal + reopen (lastTime seeded from segments).
	if err := db.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Append(Row{Time: 99, Series: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order after reopen: err = %v", err)
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Append(Row{Time: 1, Series: 0})
	db.Close()

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Append(Row{Time: 2, Series: 0}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only append: err = %v", err)
	}
	if err := ro.Seal(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only seal: err = %v", err)
	}
	if _, err := Open(t.TempDir(), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a non-store succeeded")
	}
}

func TestIsStoreAndMetaVersion(t *testing.T) {
	dir := t.TempDir()
	if IsStore(dir) {
		t.Fatal("empty dir reported as store")
	}
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if !IsStore(dir) {
		t.Fatal("store not recognized")
	}
	// Future format versions are rejected, not misread.
	if err := os.WriteFile(filepath.Join(dir, "META.json"), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: err = %v", err)
	}
}

func TestVerifyReportsWALRows(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	want := campaign(t, db, rng, 2, 20, 0)
	crash(db)

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALRows != len(want) {
		t.Fatalf("verify WALRows = %d, want %d", rep.WALRows, len(want))
	}
	// Verify must not have mutated anything: a reopen still recovers.
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Recovered() != len(want) {
		t.Fatalf("recovered %d after Verify, want %d", db2.Recovered(), len(want))
	}
}

func TestIteratorSurvivesConcurrentSeal(t *testing.T) {
	// An iterator snapshots its chunk refs; sealing or compacting under it
	// must not invalidate the rows it yields.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(20))
	want := campaign(t, db, rng, 2, 100, 0)

	it := db.QueryAll(-1<<62, 1<<62)
	var got []Row
	for i := 0; it.Next(); i++ {
		got = append(got, cloneRow(it.Row()))
		if i == 10 {
			if err := db.Seal(); err != nil {
				t.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	requireByteEqual(t, got, want)
}
