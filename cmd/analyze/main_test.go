package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/wire"
)

// recordCampaign runs the paper's 43-client campaign in-process for the
// given simulated seconds, recording the same rounds into one store per
// entry of starts (store directory → header start time).
func recordCampaign(t *testing.T, city string, seed, seconds int64, starts map[string]int64) {
	t.Helper()
	profile, err := sim.ProfileByName(city)
	if err != nil {
		t.Fatal(err)
	}
	pts := client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients)
	svc := api.Scenario{City: city, Seed: seed, Jitter: true}.Build()
	camp := client.NewCampaign(svc, svc.World().Projection(), pts)
	camp.RegisterAll(svc)
	var recs []record.CampaignWriter
	for dir, start := range starts {
		rec, err := record.Create(record.StoreTSDB, dir, record.Header{City: profile.Name, Start: start, Clients: pts}, nil)
		if err != nil {
			t.Fatal(err)
		}
		camp.AddSink(rec)
		recs = append(recs, rec)
	}
	camp.RunSim(svc, seconds)
	for _, rec := range recs {
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// damagedCopy copies the store at src to dst in two writer sessions, split
// at time split, so dst holds two sealed segments; then it flips a byte in
// the first chunk of the second one. A replay of dst delivers the rounds
// before split and stops at the damage.
func damagedCopy(t *testing.T, src, dst string, split int64) {
	t.Helper()
	db, hdr, err := record.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, win := range [][2]int64{{record.MinTime, split}, {split, record.MaxTime}} {
		w, err := record.Create(record.StoreTSDB, dst, hdr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := record.Replay(db, hdr, win[0], win[1], w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dst, "seg", "*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("want two segments, have %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff // inside the first chunk: payloads follow the 8-byte magic
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	store, damaged, jsonl := filepath.Join(dir, "c.tsdb"), filepath.Join(dir, "damaged.tsdb"), filepath.Join(dir, "c.jsonl.gz")
	recordCampaign(t, "manhattan", 42, 600, map[string]int64{store: 0})
	damagedCopy(t, store, damaged, 300)
	if err := os.WriteFile(jsonl, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"no input", nil, 2, "", "usage: analyze -in"},
		{"help", []string{"-h"}, 0, "", "Usage of analyze"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
		{"follow without -bus", []string{"-follow"}, 2, "", "usage: analyze -follow -bus DIR"},
		// -poll 0 used to spin a core through time.After(0).
		{"follow with zero poll", []string{"-follow", "-bus", dir, "-poll", "0"}, 2, "", "-poll must be > 0"},
		// A negative count used to read nothing and exit 0.
		{"follow with negative windows", []string{"-follow", "-bus", dir, "-windows", "-1"}, 2, "", "-windows must be >= 0"},
		// An empty window used to be analyzed, silently, as nothing.
		{"window ends before it starts", []string{"-in", store, "-from", "100", "-to", "50"}, 2, "", "-to must be after -from"},
		{"no such store", []string{"-in", filepath.Join(dir, "nope")}, 1, "", "no such file"},
		{"follow a directory that is not a bus", []string{"-follow", "-bus", dir}, 1, "", "no tailable topics"},
		// A flag of the other mode used to be ignored: -follow returned
		// before -in, -from and -to were looked at, and -in ran without
		// reading -bus, -windows or -poll.
		{"follow with -in", []string{"-follow", "-bus", dir, "-in", store}, 2, "", "-in does not apply with -follow"},
		{"follow with -from", []string{"-follow", "-bus", dir, "-from", "100"}, 2, "", "-from does not apply with -follow"},
		{"follow with -to", []string{"-follow", "-bus", dir, "-to", "100"}, 2, "", "-to does not apply with -follow"},
		{"bus without -follow", []string{"-in", store, "-bus", dir}, 2, "", "-bus does not apply without -follow"},
		{"windows without -follow", []string{"-in", store, "-windows", "2"}, 2, "", "-windows does not apply without -follow"},
		{"poll without -follow", []string{"-in", store, "-poll", "1s"}, 2, "", "-poll does not apply without -follow"},
		// A file, such as an old gzip recording, is not a store.
		{"jsonl", []string{"-in", jsonl}, 1, "", jsonl + ": not a campaign store"},
		{"tsdb", []string{"-in", store}, 0, "recording: city=manhattan clients=43 rounds=120\n", ""},
		{"tsdb window", []string{"-in", store, "-from", "300", "-to", "600"}, 0, "clients=43 rounds=60\n", ""},
		// The 59 rounds before t=300 are whole; the damaged chunk holds
		// client 0's row of the next one, so the replay delivers them all
		// and stops there.
		{"damaged store", []string{"-in", damaged}, 0, "clients=43 rounds=59\n", "warning:"},
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
			if c.stdout != "" && !strings.Contains(stdout.String(), "P(≤4min) 100.0%\nsurge: P(=1) 100.0%") {
				t.Errorf("report lacks the EWT and surge distributions of this quiet campaign:\n%s", &stdout)
			}
		})
	}
}

// TestRunWindowFromStoreExtent records one campaign under two headers, the
// second starting ten minutes before the first ping (as the bus ingester's
// header does, stamped when the ingester opens): the analysis window ends
// at the last observation, not start + rounds × 5 s, so both print the
// same surge-duration, jitter and forecast lines.
func TestRunWindowFromStoreExtent(t *testing.T) {
	dir := t.TempDir()
	onTime, early := filepath.Join(dir, "on-time.tsdb"), filepath.Join(dir, "early.tsdb")
	recordCampaign(t, "sf", 7, 3600, map[string]int64{onTime: 0, early: -600})

	analysis := func(store string) string {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), []string{"-in", store}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d: %s", store, code, &stderr)
		}
		var keep []string
		for _, l := range strings.Split(stdout.String(), "\n") {
			for _, prefix := range []string{"surge durations", "jitter events", "  observed by", "forecast", "  Raw", "  Threshold", "  Rush"} {
				if strings.HasPrefix(l, prefix) {
					keep = append(keep, l)
				}
			}
		}
		return strings.Join(keep, "\n")
	}
	want, got := analysis(onTime), analysis(early)
	if !strings.Contains(want, "surge durations: n=") || !strings.Contains(want, "forecasting (n=") {
		t.Fatalf("campaign too quiet to compare:\n%s", want)
	}
	if got != want {
		t.Errorf("header start 10 minutes early:\n%s\nwant\n%s", got, want)
	}
}

// TestFollowStopsAtWindows: a bus whose backlog holds six windows of pings
// and dispatches. -windows 2 used to print every window the backlog
// sealed, then the open one as partial, and correlate them all; it must
// print and correlate exactly two.
func TestFollowStopsAtWindows(t *testing.T) {
	dir := t.TempDir()
	b, err := bus.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	pings, err := b.Topic(bus.TopicPings)
	if err != nil {
		t.Fatal(err)
	}
	cars, err := b.Topic(bus.TopicCars)
	if err != nil {
		t.Fatal(err)
	}
	for ts := int64(0); ts < 6*300; ts += 30 {
		o := bus.Observation{Client: "c0", Lat: 40.7549, Lng: -73.9840, Time: ts, Types: []wire.TypeObs{{
			Name: core.UberX.String(), Surge: 1, EWT: 120,
			Cars: []wire.Car{{ID: fmt.Sprintf("car%d", ts/60), Lat: 40.75, Lng: -73.99}},
		}}}
		if err := pings.Publish(bus.Event{Time: ts, Kind: bus.KindPing, Key: o.Client, Data: bus.AppendObservation(nil, &o)}); err != nil {
			t.Fatal(err)
		}
		if err := cars.Publish(bus.Event{Time: ts, Kind: bus.KindTripDispatch, Key: "d"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-follow", "-bus", dir, "-windows", "2", "-poll", "5ms"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if ctx.Err() != nil {
		t.Error("run did not stop by itself")
	}
	var windows []string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "t=") {
			windows = append(windows, l)
		}
	}
	if len(windows) != 2 || strings.Contains(stdout.String(), "partial") {
		t.Errorf("printed %d windows, want the first two sealed ones:\n%s", len(windows), &stdout)
	}
	if !strings.Contains(stdout.String(), "\n2 windows\n") {
		t.Errorf("summary does not cover exactly two windows:\n%s", &stdout)
	}
}
