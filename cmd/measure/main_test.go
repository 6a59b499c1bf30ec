package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/record"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
	// A regular file where -record needs a directory to create the store in.
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A reachable backend, so that a -rounds row fails on the flag alone.
	backend := httptest.NewServer(api.NewServer(api.Scenario{City: "manhattan", Seed: 11}.Build()))
	defer backend.Close()
	// 0.1667 h is the paper's campaign for ten simulated minutes: 120
	// rounds of 43 clients.
	const tenMinutes, wantRows = "0.1667", "recorded 5160 rows"
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
		store  string // recording to replay afterwards
	}{
		{"help", []string{"-h"}, 0, "", "Usage of measure", ""},
		{"unknown flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined", ""},
		{"unknown city", []string{"-city", "atlantis"}, 2, "", "atlantis", ""},
		// There is one store kind, so -store is no longer a flag.
		{"unknown store", []string{"-store", "nope"}, 2, "", "flag provided but not defined: -store", ""},
		{"unknown store with -record", []string{"-store", "tsdb", "-record", filepath.Join(dir, "x")}, 2, "", "flag provided but not defined: -store", ""},
		{"unwritable recording", []string{"-hours", tenMinutes, "-record", filepath.Join(file, "c.tsdb")}, 1, "", "not a directory", ""},
		{"unreachable backend", []string{"-addr", "http://127.0.0.1:1", "-rounds", "1"}, 1, "", "register", ""},
		// A campaign that would measure nothing is a command line error; each
		// of these used to print "rounds: 0" and exit 0.
		{"negative hours", []string{"-hours", "-1"}, 2, "", "-hours -1", ""},
		{"zero hours", []string{"-hours", "0"}, 2, "", "-hours 0", ""},
		{"under a second", []string{"-hours", "0.0001"}, 2, "", "-hours 0.0001", ""},
		{"NaN hours", []string{"-hours", "NaN"}, 2, "", "-hours NaN", ""},
		{"infinite hours", []string{"-hours", "Inf"}, 2, "", "-hours +Inf", ""},
		{"hours overflow int64 seconds", []string{"-hours", "1e300"}, 2, "", "-hours 1e+300", ""},
		{"zero rounds", []string{"-addr", backend.URL, "-rounds", "0"}, 2, "", "-rounds 0", ""},
		{"negative rounds", []string{"-addr", backend.URL, "-rounds", "-5"}, 2, "", "-rounds -5", ""},
		// The old quickstart's file name: -record still writes a store.
		{"jsonl", []string{"-hours", tenMinutes, "-record", filepath.Join(dir, "c.jsonl.gz")}, 0, wantRows, "", filepath.Join(dir, "c.jsonl.gz")},
		{"tsdb", []string{"-hours", tenMinutes, "-record", filepath.Join(dir, "c.tsdb")}, 0, wantRows, "", filepath.Join(dir, "c.tsdb")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var stdout, stderr bytes.Buffer
			if code := run(ctx, c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, c.code, &stderr)
			}
			if ctx.Err() != nil {
				t.Error("run did not stop by itself")
			}
			if !strings.Contains(stdout.String(), c.stdout) || (c.stdout == "") != (stdout.Len() == 0) {
				t.Errorf("stdout %q, want it to contain %q (and nothing otherwise)", &stdout, c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, c.stderr)
			}
			if c.store == "" {
				return
			}
			if !strings.Contains(stdout.String(), "rounds: 120, ping errors: 0\n") {
				t.Errorf("summary lacks the 120 clean rounds:\n%s", &stdout)
			}
			hdr, rounds, err := record.ReplayPathRange(c.store, record.MinTime, record.MaxTime)
			if err != nil || rounds != 120 || hdr.City != "manhattan" || len(hdr.Clients) != 43 {
				t.Errorf("replaying %s: %d rounds of %d clients in %q, %v", c.store, rounds, len(hdr.Clients), hdr.City, err)
			}
		})
	}
}
