package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/wire"
)

// windowValues is what the follow line of window iv reads from ds, named:
// supply and deaths per tracked product, the region's EWT and surge, and
// each area's supply, deaths, EWT and median surge.
func windowValues(ds *measure.Dataset, iv int) map[string]float64 {
	v := map[string]float64{
		"ewt":   ds.EWTSeries().Values[iv],
		"surge": ds.SurgeSeries().Values[iv],
	}
	for _, vt := range measure.TrackedTypes {
		v["supply "+vt.String()] = ds.SupplySeries(vt).Values[iv]
		v["deaths "+vt.String()] = ds.DeathSeries(vt).Values[iv]
	}
	for a := range ds.NumAreas() {
		v[fmt.Sprintf("area %d supply", a)] = ds.AreaSupplySeries(a).Values[iv]
		v[fmt.Sprintf("area %d deaths", a)] = ds.AreaDeathSeries(a).Values[iv]
		v[fmt.Sprintf("area %d ewt", a)] = ds.AreaEWTSeries(a).Values[iv]
		v[fmt.Sprintf("area %d surge", a)] = ds.AreaSurgeSeries(a).Values[iv]
	}
	return v
}

// snapshotWriter records what the follower prints and, for each window,
// its Dataset at the moment the window is printed.
type snapshotWriter struct {
	f       *follower
	windows []map[string]float64
	bytes.Buffer
}

func (w *snapshotWriter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("t=")) {
		iv := w.f.printed
		w.windows = append(w.windows, windowValues(w.f.ds, iv))
	}
	return w.Buffer.Write(p)
}

// TestFollowMatchesReplay: the live and batch views of one campaign agree.
// A seeded half-hour SF campaign publishes its pings while a consumer
// group ingests them into a store; every window analyze -follow prints
// from the bus holds, at the moment it is printed, the same values bit for
// bit as analyze -in's Dataset over the store with the same start, and
// its line is the one that Dataset prints.
func TestFollowMatchesReplay(t *testing.T) {
	tmp := t.TempDir()
	busDir, ingest := filepath.Join(tmp, "bus"), filepath.Join(tmp, "ingest")
	publishCampaign(t, "sf", 7, 1800, busDir, ingest)

	w := &snapshotWriter{}
	w.f = newFollower(5, w)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	if code := runFollow(ctx, busDir, w.f, time.Millisecond, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if len(w.windows) != 5 {
		t.Fatalf("follow printed %d windows, want 5", len(w.windows))
	}

	ds, err := analyzeStore(ingest, w.f.start, record.MaxTime, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if start := ds.EWTSeries().Start; start != w.f.start {
		t.Fatalf("replay buckets start at %d, follow's at %d", start, w.f.start)
	}
	var want bytes.Buffer
	replayed := &follower{ds: ds, start: w.f.start, out: &want}
	for iv := range w.windows {
		replayed.printWindow(iv)
	}
	if got := w.String(); !strings.HasPrefix(got, want.String()+"\n5 windows\n") {
		t.Errorf("follow printed\n%s\nthe replayed store prints\n%s", got, &want)
	}
	deaths := 0.0
	for iv, live := range w.windows {
		for name, want := range windowValues(ds, iv) {
			got := live[name]
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("window %d %s: follow %v, replay %v", iv, name, got, want)
			}
		}
		deaths += live["deaths "+core.UberX.String()]
	}
	if deaths == 0 {
		t.Error("no UberX deaths in five windows: the campaign is too quiet to compare")
	}
}

// ping is an api.pings event: client c at ll, served at time ts, seeing
// UberX at multiplier surge with the given cars, each at ll.
func ping(c string, ts int64, lat, lng, surge float64, cars ...string) bus.Event {
	ty := wire.TypeObs{Name: core.UberX.String(), Surge: surge, EWT: 120}
	for _, id := range cars {
		ty.Cars = append(ty.Cars, wire.Car{ID: id, Lat: lat, Lng: lng})
	}
	o := bus.Observation{Client: c, Lat: lat, Lng: lng, Time: ts, Types: []wire.TypeObs{ty}}
	return bus.Event{Time: ts, Kind: bus.KindPing, Key: c, Data: bus.AppendObservation(nil, &o)}
}

// TestFollow runs analyze -follow over small hand-written api.pings logs.
func TestFollow(t *testing.T) {
	origin := sim.Manhattan().Origin
	lat, lng := origin.Lat, origin.Lng
	// rounds pings client c0 every 5 s over [from, to), seeing carA, and
	// carB until gone.
	rounds := func(from, to, gone int64, surge func(int64) float64) []bus.Event {
		var evs []bus.Event
		for ts := from; ts < to; ts += 5 {
			cars := []string{"carA"}
			if ts < gone {
				cars = append(cars, "carB")
			}
			evs = append(evs, ping("c0", ts, lat, lng, surge(ts), cars...))
		}
		return evs
	}
	flat := func(int64) float64 { return 1 }
	cut := ping("c1", 20, lat, lng, 1)
	cut.Data = cut.Data[:len(cut.Data)-1]

	cases := []struct {
		name    string
		events  []bus.Event
		windows string
		code    int
		stdout  []string // substrings, in order
		absent  string
		stderr  string
	}{
		// carB is last seen in window 0's last round (t=295) and missed
		// from t=300: its death is window 0's, final after the round at
		// t=305. The log ends at t=600, whose round never ends, so
		// window 1 is never final.
		{"windows seal on their boundaries", rounds(0, 605, 300, flat), "0", 0,
			[]string{"t=0 supply=2 deaths=1 ", "\n1 windows\n"}, "t=300", ""},
		{"constant series", rounds(0, 1300, math.MaxInt64, flat), "3", 0,
			[]string{"t=0 supply=2 deaths=0 ewt=2.00 surge=1.00 ", "t=600 ", "\n3 windows\n",
				"corr(surge, supply): (degenerate)", "corr(surge, EWT): (degenerate)", "corr(surge, deaths): (degenerate)"}, "t=900", ""},
		{"undecodable payload", append(rounds(0, 20, 0, flat), append([]bus.Event{cut}, rounds(20, 40, 0, flat)...)...), "0", 0,
			[]string{"\n0 windows\nskipped: 1 undecodable, 0 older than their round, 0 duplicate pings\n"}, "", ""},
		// c1's first ping is older than c0's open round at t=15.
		{"ping older than the open round", append(rounds(0, 20, 0, flat), ping("c1", 12, lat, lng, 1)), "0", 0,
			[]string{"\n0 windows\nskipped: 0 undecodable, 1 older than their round, 0 duplicate pings\n"}, "", ""},
		{"ping in no city", []bus.Event{ping("c0", 0, 1.5, 2.25, 1)}, "0", 1,
			nil, "", "the first ping, at 1.500000,2.250000, is in no city's region"},
		{"surge follows supply", append(rounds(0, 600, 300, flat), rounds(600, 1205, 0, func(int64) float64 { return 2 })...), "3", 0,
			[]string{"t=0 supply=2 deaths=1 ", "t=600 supply=1 deaths=0 ewt=2.00 surge=2.00 ", "corr(surge, supply): -0.500"}, "", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
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
			for _, ev := range c.events {
				if err := pings.Publish(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
			// A run without a window count ends when ctx does.
			timeout := 200 * time.Millisecond
			if c.windows != "0" {
				timeout = 10 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var stdout, stderr bytes.Buffer
			if code := run(ctx, []string{"-follow", "-bus", dir, "-windows", c.windows, "-poll", "5ms"}, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, c.code, &stderr)
			}
			if c.windows != "0" && ctx.Err() != nil {
				t.Error("run did not stop by itself")
			}
			out := stdout.String()
			rest := out
			for _, want := range c.stdout {
				i := strings.Index(rest, want)
				if i < 0 {
					t.Fatalf("stdout lacks %q after the lines before it:\n%s", want, out)
				}
				rest = rest[i+len(want):]
			}
			if c.absent != "" && strings.Contains(out, c.absent) {
				t.Errorf("stdout holds %q:\n%s", c.absent, out)
			}
			if !strings.Contains(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
				t.Errorf("stderr %q, want it to contain %q (and nothing otherwise)", &stderr, c.stderr)
			}
		})
	}
}
