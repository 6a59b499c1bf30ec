package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recording is three rounds of two clients (client 0's ping of round two
// failed) as gzip-JSONL text, rows in (time, series) order: the order an
// export writes, so convert's round trip reproduces it byte for byte.
const recording = `{"version":2,"city":"manhattan","start":600,"clients":[{"x":100,"y":-250.5},{"x":300,"y":0}]}
{"t":605,"c":0,"y":[{"t":"uberX","s":1.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.98}]},{"t":"uberT","s":1,"e":600}]}
{"t":605,"c":1,"y":[{"t":"uberX","s":2.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.98}]},{"t":"uberT","s":1,"e":600}]}
{"t":610,"c":0,"g":true,"r":"http 503"}
{"t":610,"c":1,"y":[{"t":"uberX","s":2.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.9799}]},{"t":"uberT","s":1,"e":600}]}
{"t":615,"c":0,"y":[{"t":"uberX","s":1.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.9798}]},{"t":"uberT","s":1,"e":600}]}
{"t":615,"c":1,"y":[{"t":"uberX","s":2.5,"e":240,"c":[{"i":"sess-1","a":40.74,"o":-73.9798}]},{"t":"uberT","s":1,"e":600}]}
`

func writeRecording(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := io.WriteString(gz, recording); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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
		{"inspect columns", []string{"inspect", store}, 0, "chunk payloads (2 chunks): section, bytes, B/row\n  dictionary ", ""},
		{"tsdb to jsonl", []string{"convert", "-in", store, "-out", back}, 0, "converted 6 rows", ""},
		{"compact", []string{"compact", store}, 0, "compacted 1 segments", ""},
		{"missing -out", []string{"convert", "-in", rec}, 1, "", "-in and -out are required"},
		{"missing store", []string{"verify", filepath.Join(dir, "absent")}, 1, "", "tsdbtool:"},
		{"help", []string{"-h"}, 0, "", "usage:"},
		{"convert help", []string{"convert", "-h"}, 0, "", "Usage of convert"},
		{"unknown flag", []string{"convert", "-frob"}, 2, "", "usage:"},
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

	if got := gunzipFile(t, back); got != recording {
		t.Errorf("jsonl → tsdb → jsonl changed the recording:\n got %s\nwant %s", got, recording)
	}
}
