package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/record"
)

// writeRecording records three rounds of two clients (one ping of round
// two fails) as gzip-JSONL.
func writeRecording(t *testing.T, path string) {
	t.Helper()
	hdr := record.Header{City: "manhattan", Start: 600, Clients: []geo.Point{{X: 100, Y: -250.5}, {X: 300}}}
	w, err := record.Create(record.StoreJSONL, path, hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 3; round++ {
		now := 605 + 5*round
		for c := 0; c < 2; c++ {
			if round == 1 && c == 0 {
				w.ObserveGap(c, geo.Point{}, now-5, errors.New("http 503"))
				continue
			}
			w.Observe(c, geo.Point{}, &core.PingResponse{Time: now, Types: []core.TypeStatus{
				{Type: core.UberX, TypeName: "uberX", Surge: 1.5 + float64(c), EWTSeconds: 240, Cars: []core.CarView{
					{ID: "sess-1", Pos: geo.LatLng{Lat: 40.74, Lng: -73.98 + float64(round)*1e-4}},
				}},
				{Type: core.UberT, TypeName: "uberT", Surge: 1, EWTSeconds: 600},
			}})
		}
		w.EndRound(now)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func gunzipFile(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	rec, store, back := filepath.Join(dir, "rec.jsonl.gz"), filepath.Join(dir, "store"), filepath.Join(dir, "back.jsonl.gz")
	writeRecording(t, rec)

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"jsonl to tsdb", []string{"convert", "-in", rec, "-out", store}, 0, "converted 6 rows (city=manhattan, 2 clients)", ""},
		{"verify", []string{"verify", store}, 0, "sealed rows: 6\nwal: recovered 0 rows\nok\n", ""},
		{"inspect", []string{"inspect", store}, 0, "campaign: city=manhattan clients=2 start=600", ""},
		{"tsdb to jsonl", []string{"convert", "-in", store, "-out", back}, 0, "converted 6 rows", ""},
		{"compact", []string{"compact", store}, 0, "compacted 1 segments", ""},
		{"missing -out", []string{"convert", "-in", rec}, 1, "", "-in and -out are required"},
		{"missing store", []string{"verify", filepath.Join(dir, "absent")}, 1, "", "tsdbtool:"},
		{"unknown flag", []string{"convert", "-frob"}, 2, "", "usage:"},
		{"unknown subcommand", []string{"frobnicate", store}, 2, "", "usage:"},
		{"no directory", []string{"verify"}, 2, "", "usage:"},
		{"no arguments", nil, 2, "", "usage:"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.code == 0) != (stderr.Len() == 0) {
			t.Errorf("%s: stdout %q, want it to hold %q; stderr %q", tc.name, &stdout, tc.stdout, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q, want it to hold %q", tc.name, &stderr, tc.stderr)
		}
	}

	if got, want := gunzipFile(t, back), gunzipFile(t, rec); got != want {
		t.Errorf("jsonl → tsdb → jsonl changed the recording:\n got %s\nwant %s", got, want)
	}
}
