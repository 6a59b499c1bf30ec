package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/record"
)

func TestRun(t *testing.T) {
	dir := t.TempDir()
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
		{"unknown flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined", ""},
		{"unknown city", []string{"-city", "atlantis"}, 2, "", "atlantis", ""},
		// Without -record nothing looked at -store, so a typo was accepted.
		{"unknown store", []string{"-store", "nope"}, 2, "", "-store must be jsonl or tsdb", ""},
		{"unknown store with -record", []string{"-store", "nope", "-record", filepath.Join(dir, "x")}, 2, "", "-store must be", ""},
		{"unwritable recording", []string{"-hours", tenMinutes, "-record", filepath.Join(dir, "no", "such", "dir.gz")}, 1, "", "no such file", ""},
		{"unreachable backend", []string{"-addr", "http://127.0.0.1:1", "-rounds", "1"}, 1, "", "register", ""},
		{"jsonl", []string{"-hours", tenMinutes, "-record", filepath.Join(dir, "c.jsonl.gz")}, 0, wantRows, "", filepath.Join(dir, "c.jsonl.gz")},
		{"tsdb", []string{"-hours", tenMinutes, "-store", "tsdb", "-record", filepath.Join(dir, "c.tsdb")}, 0, wantRows, "", filepath.Join(dir, "c.tsdb")},
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
			hdr, rounds, err := record.ReplayPath(c.store)
			if err != nil || rounds != 120 || hdr.City != "manhattan" || len(hdr.Clients) != 43 {
				t.Errorf("replaying %s: %d rounds of %d clients in %q, %v", c.store, rounds, len(hdr.Clients), hdr.City, err)
			}
		})
	}
}
