package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/record"
	"repro/internal/sim"
)

// recordCampaign runs the paper's 43-client campaign in-process for ten
// simulated minutes, recording the same rounds into one store of each kind.
func recordCampaign(t *testing.T, jsonl, tsdb string) {
	t.Helper()
	profile, err := sim.ProfileByName("manhattan")
	if err != nil {
		t.Fatal(err)
	}
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	svc := api.NewBackend(profile, 42, true)
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	for kind, path := range map[string]string{record.StoreJSONL: jsonl, record.StoreTSDB: tsdb} {
		rec, err := record.Create(kind, path, record.Header{City: profile.Name, Clients: pts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		camp.AddSink(rec)
		defer func() {
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}()
	}
	camp.RunSim(svc, 600)
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	jsonl, tsdb := filepath.Join(dir, "c.jsonl.gz"), filepath.Join(dir, "c.tsdb")
	recordCampaign(t, jsonl, tsdb)

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"no input", nil, 2, "", "usage: analyze -in"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
		{"follow without -bus", []string{"-follow"}, 2, "", "usage: analyze -follow -bus DIR"},
		// -poll 0 used to spin a core through time.After(0).
		{"follow with zero poll", []string{"-follow", "-bus", dir, "-poll", "0"}, 2, "", "-poll must be > 0"},
		// An empty window used to be analyzed, silently, as nothing.
		{"window ends before it starts", []string{"-in", tsdb, "-from", "100", "-to", "50"}, 2, "", "-to must be after -from"},
		{"no such store", []string{"-in", filepath.Join(dir, "nope")}, 1, "", "no such file"},
		{"follow a directory that is not a bus", []string{"-follow", "-bus", dir}, 1, "", "no tailable topics"},
		{"jsonl", []string{"-in", jsonl}, 0, "recording: city=manhattan clients=43 rounds=120\n", ""},
		{"tsdb", []string{"-in", tsdb}, 0, "recording: city=manhattan clients=43 rounds=120\n", ""},
		{"tsdb window", []string{"-in", tsdb, "-from", "300", "-to", "600"}, 0, "clients=43 rounds=60\n", ""},
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
			if !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
				t.Errorf("stderr %q, want it to contain %q (and nothing otherwise)", &stderr, c.stderr)
			}
			if c.code == 0 && !strings.Contains(stdout.String(), "P(≤4min) 100.0%\nsurge: P(=1) 100.0%") {
				t.Errorf("report lacks the EWT and surge distributions of this quiet campaign:\n%s", &stdout)
			}
		})
	}
}
