package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/bus"
	"repro/internal/client"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// TestGoldenOutputs holds an hour's campaign store and its analysis to the
// SHA-256 digests in testdata/golden.txt: the segment bytes a recording
// writes and what analyze -in prints from them, and what analyze -follow
// prints from a bus a half-hour campaign published. A digest that moves means
// an output changed, so a refactor or a speed-up leaves every one as it
// is; run with -update to record an intended output change.
//
// The digests are amd64's: elsewhere Go may fuse a multiply and an add
// into one instruction, which rounds differently.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	store := filepath.Join(t.TempDir(), "c.tsdb")
	recordCampaign(t, "manhattan", 7, 3600, map[string]int64{store: 0})
	got := map[string][]byte{}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-in", store}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -in: exit %d (stderr: %s)", code, &stderr)
	}
	got["analyze"] = stdout.Bytes()
	segs, err := filepath.Glob(filepath.Join(store, "seg", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in the store (%v)", err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got["segment-"+filepath.Base(seg)] = data
	}

	bus := filepath.Join(t.TempDir(), "bus")
	publishCampaign(t, "sf", 7, 1800, bus)
	var follow bytes.Buffer
	if code := run(context.Background(), []string{"-follow", "-bus", bus, "-windows", "5", "-poll", "5ms"}, &follow, &stderr); code != 0 {
		t.Fatalf("analyze -follow: exit %d (stderr: %s)", code, &stderr)
	}
	got["follow"] = follow.Bytes()
	checkGolden(t, got)
}

// publishCampaign runs the paper's 43-client campaign in-process for the
// given simulated seconds on a bus at dir, wired as uberd -bus wires one:
// the world's events go to sim.cars, the engine's to surge.changes, and
// served pings and registrations to api.pings.
func publishCampaign(t *testing.T, city string, seed, seconds int64, dir string) {
	t.Helper()
	br, err := bus.Open(dir, bus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	sink := func(name string) func(bus.Event) {
		topic, err := br.Topic(name)
		if err != nil {
			t.Fatal(err)
		}
		return func(ev bus.Event) {
			if err := topic.Publish(ev); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	svc := api.Scenario{City: city, Seed: seed, Jitter: true}.Build()
	svc.World().SetEventSink(sink(bus.TopicCars))
	svc.Engine().SetEventSink(sink(bus.TopicSurge))
	pings := sink(bus.TopicPings)
	svc.SetEventSinks(pings, pings)

	profile := svc.World().Profile()
	camp := client.NewCampaign(svc, svc.World().Projection(),
		client.GridLayout(profile.MeasureRect, profile.ClientSpacing, client.NumClients))
	if err := camp.RegisterAll(svc); err != nil {
		t.Fatal(err)
	}
	camp.RunSim(svc, seconds)
}

// checkGolden compares the SHA-256 of each output with its "name digest"
// line in testdata/golden.txt, or rewrites the file under -update.
func checkGolden(t *testing.T, outputs map[string][]byte) {
	t.Helper()
	names := make([]string, 0, len(outputs))
	for name := range outputs {
		names = append(names, name)
	}
	slices.Sort(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(outputs[name]))
	}
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("the output changed:\n got  %s want %s", strings.ReplaceAll(got, "\n", "\n      "), strings.ReplaceAll(string(want), "\n", "\n      "))
	}
}
