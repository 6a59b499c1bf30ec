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
	"repro/internal/record"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

// TestGoldenOutputs holds an hour's campaign store and its analysis to the
// SHA-256 digests in testdata/golden.txt: the segment bytes a recording
// writes and what analyze -in prints from them; the segment bytes of every
// topic of a bus a half-hour campaign published, the store a consumer group
// fed from its pings while it ran, and what analyze -follow prints from
// that bus. A digest that moves means an output changed, so a refactor or
// a speed-up leaves every one as it is; run with -update to record an
// intended output change.
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
	addSegments(t, got, "segment-", filepath.Join(store, "seg"))

	tmp := t.TempDir()
	bus, ingest := filepath.Join(tmp, "bus"), filepath.Join(tmp, "ingest")
	publishCampaign(t, "sf", 7, 1800, bus, ingest)
	addSegments(t, got, "ingest-segment-", filepath.Join(ingest, "seg"))
	topics, err := os.ReadDir(bus)
	if err != nil || len(topics) == 0 {
		t.Fatalf("no topics on the bus (%v)", err)
	}
	for _, topic := range topics {
		// One digest per topic over its segments in base order (the
		// zero-padded names sort that way), each as name, length, bytes.
		segs, err := filepath.Glob(filepath.Join(bus, topic.Name(), "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments in topic %s (%v)", topic.Name(), err)
		}
		var log []byte
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			log = fmt.Appendf(log, "%s %d\n", filepath.Base(seg), len(data))
			log = append(log, data...)
		}
		got["bus-"+topic.Name()] = log
	}
	var follow bytes.Buffer
	if code := run(context.Background(), []string{"-follow", "-bus", bus, "-windows", "5", "-poll", "5ms"}, &follow, &stderr); code != 0 {
		t.Fatalf("analyze -follow: exit %d (stderr: %s)", code, &stderr)
	}
	got["follow"] = follow.Bytes()
	checkGolden(t, got)
}

// addSegments adds each segment file of a store's seg directory to got,
// named prefix plus the file name.
func addSegments(t *testing.T, got map[string][]byte, prefix, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		got[prefix+filepath.Base(seg)] = data
	}
}

// publishCampaign runs the paper's 43-client campaign in-process for the
// given simulated seconds on a bus at dir, wired as uberd -bus -bus-ingest
// wires one: the world's events go to sim.cars, the engine's to
// surge.changes, and served pings and registrations to api.pings, which a
// consumer group feeds to a live store at ingest while the campaign runs.
func publishCampaign(t *testing.T, city string, seed, seconds int64, dir, ingest string) {
	t.Helper()
	br, err := bus.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	topic := func(name string) *bus.Topic {
		tp, err := br.Topic(name)
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	sink := func(tp *bus.Topic) func(bus.Event) {
		return func(ev bus.Event) {
			if err := tp.Publish(ev); err != nil {
				t.Errorf("%s: %v", tp.Name(), err)
			}
		}
	}
	svc := api.Scenario{City: city, Seed: seed, Jitter: true}.Build()
	svc.World().SetEventSink(sink(topic(bus.TopicCars)))
	svc.Engine().SetEventSink(sink(topic(bus.TopicSurge)))
	pingTopic := topic(bus.TopicPings)
	pings := sink(pingTopic)
	svc.SetEventSinks(pings, pings)

	cons, err := pingTopic.Subscribe("ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	ing, err := record.NewLiveIngester(ingest,
		record.Header{City: svc.World().Profile().Name, Start: svc.Now()}, svc.World().Projection(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for ev, ok := cons.Next(); ok; ev, ok = cons.Next() {
			roundDone, err := ing.Handle(ev)
			if err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			if roundDone {
				// Rows are durable; the offset may follow.
				if err := cons.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}
	}()
	defer func() {
		// Closing the broker ends Next once the backlog is drained.
		if err := br.Close(); err != nil {
			t.Error(err)
		}
		<-ingested
		if err := ing.Close(); err != nil {
			t.Error(err)
		}
		if err := cons.Commit(); err != nil {
			t.Error(err)
		}
	}()

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
