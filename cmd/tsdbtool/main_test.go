package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/record"
)

// writeStore records three rounds of two clients (client 0's ping of round
// two failed) into a campaign store at dir.
func writeStore(t *testing.T, dir string) {
	t.Helper()
	w, err := record.Create(record.StoreTSDB, dir, record.Header{City: "manhattan", Start: 600, Clients: make([]geo.Point, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(605); now <= 615; now += 5 {
		for c := range 2 {
			if c == 0 && now == 610 {
				w.ObserveGap(c, geo.Point{}, 0, errors.New("http 503"))
				continue
			}
			w.Observe(c, geo.Point{}, &core.PingResponse{Time: now, Types: []core.TypeStatus{
				{TypeName: "uberX", Surge: 1.5 + float64(c), EWTSeconds: 240,
					Cars: []core.CarView{{ID: "sess-1", Pos: geo.LatLng{Lat: 40.74, Lng: -73.98}}}},
				{TypeName: "uberT", Surge: 1, EWTSeconds: 600},
			}})
		}
		w.EndRound(now)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	writeStore(t, store)

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"verify", []string{"verify", store}, 0, "sealed rows: 6\nwal: recovered 0 rows\nok\n", ""},
		{"inspect", []string{"inspect", store}, 0, "campaign: city=manhattan clients=2 start=600", ""},
		{"inspect columns", []string{"inspect", store}, 0, "chunk payloads (2 chunks): section, bytes, B/row\n  dictionary ", ""},
		{"compact", []string{"compact", store}, 0, "compacted 1 segments", ""},
		{"missing store", []string{"verify", filepath.Join(dir, "absent")}, 1, "", "tsdbtool:"},
		{"help", []string{"-h"}, 0, "", "usage:"},
		// There is no convert subcommand: the one campaign format is the store.
		{"convert", []string{"convert", "-in", "a", "-out", "b"}, 2, "", "usage:"},
		{"unknown top-level flag", []string{"-frob"}, 2, "", "usage:"},
		{"unknown subcommand", []string{"frobnicate", store}, 2, "", "usage:"},
		{"no directory", []string{"verify"}, 2, "", "usage:"},
		{"no arguments", nil, 2, "", "usage:"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", tc.name, code, tc.code, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) || (tc.code == 0 && tc.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%s: stdout %q, want it to hold %q; stderr %q", tc.name, &stdout, tc.stdout, &stderr)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: stderr %q, want it to hold %q", tc.name, &stderr, tc.stderr)
		}
	}
}
