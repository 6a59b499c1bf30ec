package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/bus"
)

func TestRun(t *testing.T) {
	const n = 7
	dir := t.TempDir()
	b, err := bus.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tp, err := b.Topic(bus.TopicCars)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+3; i++ { // more than -n asks for: it must stop at n
		if err := tp.Publish(bus.Event{Time: int64(i), Kind: bus.KindDriverSpawn, Key: "c" + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	// A seeded engine's surge.changes stream, for -surgemap.
	surgeTopic, err := b.Topic(bus.TopicSurge)
	if err != nil {
		t.Fatal(err)
	}
	svc := api.Scenario{City: "sf", Seed: 9}.Build()
	changes := 0
	svc.Engine().SetEventSink(func(ev bus.Event) {
		changes++
		if err := surgeTopic.Publish(ev); err != nil {
			t.Error(err)
		}
	})
	svc.RunUntil(3600)
	if changes == 0 {
		t.Fatal("the engine moved no multiplier in an hour")
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	// A topic directory of the partitioned layout, which no longer reads.
	old := t.TempDir()
	if err := os.MkdirAll(filepath.Join(old, bus.TopicCars, "p0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, bus.TopicCars, "TOPIC.json"), []byte(`{"partitions":8}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		code   int
		lines  int    // JSON lines on stdout
		stderr string // substring
		stdout string // substring of a run that prints no JSON
	}{
		{"missing -bus", nil, 2, 0, "usage: bustail -bus DIR", ""},
		{"help", []string{"-h"}, 0, 0, "Usage of bustail", ""},
		{"unknown flag", []string{"-no-such-flag"}, 2, 0, "flag provided but not defined", ""},
		// -poll 0 used to spin a core through time.After(0).
		{"zero poll", []string{"-bus", dir, "-poll", "0"}, 2, 0, "-poll must be > 0", ""},
		// A negative count used to print nothing and exit 0.
		{"negative count", []string{"-bus", dir, "-n", "-1"}, 2, 0, "-n must be >= 0", ""},
		{"no such topic", []string{"-bus", dir, "-topic", "nope"}, 1, 0, "no such file", ""},
		{"old layout", []string{"-bus", old}, 1, 0, filepath.Join(old, bus.TopicCars, "TOPIC.json"), ""},
		{"live", []string{"-bus", dir, "-n", "7", "-json", "-poll", "5ms"}, 0, n, "", ""},
		// The area count used to default to 6 where every city has 4: two
		// rows of the map never moved.
		{"surgemap", []string{"-bus", dir, "-surgemap", "-n", strconv.Itoa(changes), "-poll", "5ms"}, 0, 0, "", "/4 areas surging"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var stdout, stderr bytes.Buffer
			if code := run(ctx, c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, c.code, &stderr)
			}
			if ctx.Err() != nil {
				t.Error("run did not stop by itself")
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q lacks %q", &stderr, c.stderr)
			}
			if c.stdout != "" {
				if !strings.Contains(stdout.String(), c.stdout) {
					t.Errorf("stdout lacks %q:\n%s", c.stdout, &stdout)
				}
				return
			}
			var lines []string
			if stdout.Len() > 0 {
				lines = strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
			}
			if len(lines) != c.lines {
				t.Fatalf("stdout has %d lines, want %d:\n%s", len(lines), c.lines, &stdout)
			}
			for _, l := range lines {
				var ev struct{ Kind, Key string }
				if err := json.Unmarshal([]byte(l), &ev); err != nil || ev.Kind != bus.KindDriverSpawn.String() || ev.Key == "" {
					t.Errorf("line %q: err %v, want a %s event with a key", l, err, bus.KindDriverSpawn)
				}
			}
		})
	}
}
