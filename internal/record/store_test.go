package record

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/tsdb"
)

// synthRound feeds one synthetic ping round (with an optional gap for
// client gapIdx, -1 for none) into sinks the way a campaign would.
func synthRound(rng *rand.Rand, sinks []client.Sink, now int64, nClients, gapIdx int) {
	for c := 0; c < nClients; c++ {
		if c == gapIdx {
			for _, s := range sinks {
				if gs, ok := s.(client.GapSink); ok {
					gs.ObserveGap(c, geo.Point{}, now, errors.New("synthetic failure"))
				}
			}
			continue
		}
		resp := &core.PingResponse{Time: now}
		for p := 0; p < 2; p++ {
			ts := core.TypeStatus{
				Type:       core.VehicleType(p),
				TypeName:   core.VehicleType(p).String(),
				Surge:      1 + float64(rng.Intn(10))*0.1,
				EWTSeconds: float64(60 + rng.Intn(500)),
			}
			for k := 0; k < rng.Intn(5); k++ {
				ts.Cars = append(ts.Cars, core.CarView{
					ID:  fmt.Sprintf("car-%d-%d", c, k),
					Pos: geo.LatLng{Lat: 37.7 + rng.Float64()*0.1, Lng: -122.4 + rng.Float64()*0.1},
				})
			}
			resp.Types = append(resp.Types, ts)
		}
		for _, s := range sinks {
			s.Observe(c, geo.Point{}, resp)
		}
	}
	for _, s := range sinks {
		s.EndRound(now)
	}
}

// rowCollector records the exact observation stream a replay delivers.
type rowCollector struct {
	lines []string
}

func (rc *rowCollector) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	line := fmt.Sprintf("obs c=%d t=%d", clientIdx, resp.Time)
	for _, ts := range resp.Types {
		line += fmt.Sprintf(" [%s s=%v e=%v", ts.TypeName, ts.Surge, ts.EWTSeconds)
		for _, car := range ts.Cars {
			line += fmt.Sprintf(" (%s %v %v)", car.ID, car.Pos.Lat, car.Pos.Lng)
		}
		line += "]"
	}
	rc.lines = append(rc.lines, line)
}

func (rc *rowCollector) ObserveGap(clientIdx int, pos geo.Point, lastSeen int64, err error) {
	rc.lines = append(rc.lines, fmt.Sprintf("gap c=%d t=%d err=%v", clientIdx, lastSeen, err))
}

func (rc *rowCollector) EndRound(now int64) {
	rc.lines = append(rc.lines, fmt.Sprintf("end t=%d", now))
}

// digest hashes the stream split at its "end" lines, each round's lines
// sorted: within a round the delivery order is not part of the contract
// (the gzip-JSONL writer appended buffered gap rows last, a store merges
// by series id), so a stream is pinned as per-round sets in round order.
func (rc *rowCollector) digest() string {
	h := sha256.New()
	var round []string
	flush := func() {
		sort.Strings(round)
		for _, l := range round {
			fmt.Fprintln(h, l)
		}
		round = round[:0]
	}
	for _, l := range rc.lines {
		round = append(round, l)
		if strings.HasPrefix(l, "end") {
			flush()
		}
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

// dataLines returns a stream's observation and gap lines, without the
// round-boundary markers.
func dataLines(rc *rowCollector) []string {
	var out []string
	for _, l := range rc.lines {
		if !strings.HasPrefix(l, "end") {
			out = append(out, l)
		}
	}
	return out
}

// lineTime is the timestamp a collected line carries.
func lineTime(l string) int64 {
	_, rest, _ := strings.Cut(l, "t=")
	var t int64
	fmt.Sscan(strings.Fields(rest)[0], &t)
	return t
}

// writeStore runs a synthetic 4-client campaign of the given rounds (one
// ping of every seventh round fails) into a new store. With split > 0 the
// writer is closed after that many rounds and a resumed one writes the
// rest, so the store holds two sealed segments.
func writeStore(t *testing.T, rounds, split int) (string, Header) {
	t.Helper()
	hdr := Header{City: "sf", Start: 0, Clients: make([]geo.Point, 4)}
	dir := filepath.Join(t.TempDir(), "campaign.tsdb")
	rng := rand.New(rand.NewSource(30))
	var w CampaignWriter
	for i := 0; i < rounds; i++ {
		if w == nil {
			var err error
			if w, err = Create(StoreTSDB, dir, hdr, nil); err != nil {
				t.Fatal(err)
			}
		}
		gapIdx := -1
		if i%7 == 3 {
			gapIdx = i % 4
		}
		synthRound(rng, []client.Sink{w}, int64(5+i*5), 4, gapIdx)
		if i+1 == split || i+1 == rounds {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w = nil
		}
	}
	return dir, hdr
}

// replayAll collects the whole stream of the store at dir.
func replayAll(t *testing.T, dir string) (*rowCollector, Header, int64) {
	t.Helper()
	var rc rowCollector
	hdr, rounds, err := ReplayPathRange(dir, MinTime, MaxTime, &rc)
	if err != nil {
		t.Fatal(err)
	}
	return &rc, hdr, rounds
}

// TestTSDBReplayMatchesJSONL is the store's stream pin: the exact
// observation stream (every value, every gap, every round boundary) of a
// synthetic campaign, as a digest of its per-round sorted lines. The
// digest is the one the gzip-JSONL replay of the same campaign produced
// while that format was still a store, so the store is held to it.
func TestTSDBReplayMatchesJSONL(t *testing.T) {
	const want = "635453b60ca789161657c207b351eb78541af75e68da46db07b09568d708318b"
	dir, _ := writeStore(t, 40, 0)
	got, hdr, rounds := replayAll(t, dir)
	if hdr.City != "sf" || len(hdr.Clients) != 4 {
		t.Fatalf("header = %+v", hdr)
	}
	if rounds != 40 || len(got.lines) != 200 {
		t.Fatalf("replay: %d rounds, %d lines; want 40 and 200", rounds, len(got.lines))
	}
	if d := got.digest(); d != want {
		t.Fatalf("stream digest %s, want %s", d, want)
	}
}

// TestReplayPathRangeMatchesAcrossStores reads a window that straddles the
// store's two segments: it must be exactly the full stream's lines in
// [from, to), in the same order.
func TestReplayPathRangeMatchesAcrossStores(t *testing.T) {
	dir, _ := writeStore(t, 40, 20)
	from, to := int64(50), int64(120)

	all, _, _ := replayAll(t, dir)
	var window rowCollector
	if _, _, err := ReplayPathRange(dir, from, to, &window); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range all.lines {
		if tm := lineTime(l); tm >= from && tm < to {
			want = append(want, l)
		}
	}
	if len(want) == 0 || len(want) == len(all.lines) {
		t.Fatalf("window selects %d of %d lines; move it inside the campaign", len(want), len(all.lines))
	}
	if !reflect.DeepEqual(window.lines, want) {
		t.Fatalf("window stream:\n got %q\nwant %q", window.lines, want)
	}
}

func TestReadHeaderPath(t *testing.T) {
	dir, hdr := writeStore(t, 5, 0)
	db, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if got.City != hdr.City || got.Version != Version || len(got.Clients) != len(hdr.Clients) {
		t.Fatalf("header = %+v", got)
	}
	// A file is not a store, and the error names its path.
	f := filepath.Join(t.TempDir(), "c.jsonl.gz")
	if err := os.WriteFile(f, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(f); !errors.Is(err, errNotStore) || !strings.Contains(err.Error(), f) {
		t.Fatalf("file path: err = %v", err)
	}
	if _, _, err := Open(filepath.Join(t.TempDir(), "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing path: err = %v", err)
	}
}

// flipChunkByte flips one byte of the first chunk in the newest sealed
// segment of the store at dir (chunk payloads follow the 8-byte segment
// magic), so a replay reads good chunks before it meets the damage.
func flipChunkByte(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*.seg"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want two sealed segments, have %v (%v)", segs, err)
	}
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplayTruncatedTail flips one byte inside a sealed chunk: every row
// before the damage must be delivered, in order, with ErrTruncated as the
// verdict.
func TestReplayTruncatedTail(t *testing.T) {
	dir, _ := writeStore(t, 40, 20)
	whole, _, _ := replayAll(t, dir)
	flipChunkByte(t, dir)

	var partial rowCollector
	hdr, rounds, err := ReplayPathRange(dir, MinTime, MaxTime, &partial)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if hdr.City != "sf" {
		t.Fatalf("header lost: %+v", hdr)
	}
	if rounds == 0 || rounds >= 40 {
		t.Fatalf("replayed %d rounds of 40; want a nonempty part", rounds)
	}
	// The partial data lines are a strict prefix of the whole stream's.
	// ("end" lines are excluded: a round the damage cuts is closed early.)
	pd, wd := dataLines(&partial), dataLines(whole)
	if len(pd) == 0 || len(pd) >= len(wd) {
		t.Fatalf("partial stream has %d data lines, whole %d", len(pd), len(wd))
	}
	if !reflect.DeepEqual(pd, wd[:len(pd)]) {
		t.Fatal("partial stream is not a prefix of the whole")
	}
}

// TestTSDBWriterResumesAfterCrash abandons a store without closing it (the
// committed WAL is what a kill -9 leaves) and checks a replay sees every
// committed round, then resumes the campaign on reopen.
func TestTSDBWriterResumesAfterCrash(t *testing.T) {
	hdr := Header{City: "sf", Start: 0, Clients: make([]geo.Point, 3)}
	dir := filepath.Join(t.TempDir(), "crash.tsdb")
	w, err := Create(StoreTSDB, dir, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		synthRound(rng, []client.Sink{w}, int64(5+i*5), 3, -1)
	}
	// No Close: the store on disk is exactly what a crash leaves behind.

	rep, err := tsdb.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALRows == 0 {
		t.Fatal("verify found no WAL rows to recover")
	}
	if _, _, rounds := replayAll(t, dir); rounds != 10 {
		t.Fatalf("replay after crash: rounds=%d", rounds)
	}

	// Reopen WITHOUT closing w — a clean Close would seal the head and
	// leave nothing for recovery. The abandoned handles just leak until
	// the test ends, as a crashed process's would.
	w2, err := Create(StoreTSDB, dir, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := w2.Written(); rows == 0 {
		t.Fatal("reopened writer does not count recovered rows")
	}
	synthRound(rng, []client.Sink{w2}, 5+10*5, 3, -1)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, rounds := replayAll(t, dir); rounds != 11 {
		t.Fatalf("replay after resume: rounds=%d", rounds)
	}
}

func TestCreateRejectsUnknownKind(t *testing.T) {
	for _, kind := range []string{"parquet", "jsonl"} {
		if _, err := Create(kind, filepath.Join(t.TempDir(), "x"), Header{}, nil); err == nil {
			t.Fatalf("store kind %q accepted", kind)
		}
	}
}
