// Streaming mode: -follow tails api.pings. Each ping becomes the row the
// live ingester stores (record.Pings) and reaches a measure.Dataset
// through a record.Feed, as a replayed row does. The city is the one whose
// region holds the first ping; the 5-minute windows start at its time. A
// window prints once its deaths are final, measure.DeathGraceRounds rounds
// at or past its end: UberX supply and deaths, the region's mean EWT
// (minutes) and surge, then per area supply/deaths/EWT/median surge.

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/bus"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tsdb"
)

// runFollow tails the bus at busDir into f until ctx is cancelled or f
// has printed its windows, waiting poll between empty reads.
func runFollow(ctx context.Context, busDir string, f *follower, poll time.Duration, stderr io.Writer) int {
	tl, err := bus.OpenTail(busDir, bus.TopicPings)
	if err != nil {
		fmt.Fprintf(stderr, "no tailable topics: %v (is this a -bus directory?)\n", err)
		return 1
	}
	defer tl.Close()
	var batch []bus.Event
	for ctx.Err() == nil && !f.done() {
		batch = tl.Poll(batch[:0])
		for _, ev := range batch {
			if err := f.handle(ev); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if f.done() {
				break // a backlog can finish many windows in one batch
			}
		}
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(poll):
			}
		}
	}
	f.summarize()
	return 0
}

// follower feeds api.pings to a live Dataset and prints its windows. It is
// the Feed's last sink, so its EndRound runs after the Dataset's.
type follower struct {
	pings *record.Pings
	ds    *measure.Dataset // nil until the first ping names the city
	feed  record.Feed
	proj  *geo.Projection
	start int64 // the first round's time: window 0 starts there
	// recent holds the times of the last rounds ended, oldest first.
	recent        []int64
	printed, max  int   // windows printed; to print (0 = no limit)
	corrupt, late int64 // pings that did not decode; pings older than their round
	out           io.Writer
	// cols holds the printed windows' surge, supply, EWT and deaths.
	cols [4][]float64
}

func newFollower(maxWindows int, out io.Writer) *follower {
	return &follower{pings: record.NewPings(), max: maxWindows, out: out}
}

func (f *follower) done() bool { return f.max > 0 && f.printed >= f.max }

// handle feeds one event. Only a first ping in no city's region is an
// error; a ping that cannot be read is counted and skipped.
func (f *follower) handle(ev bus.Event) error {
	o, series, err := f.pings.Read(ev)
	if err != nil {
		f.corrupt++
	}
	if series < 0 {
		return nil
	}
	ll := geo.LatLng{Lat: o.Lat, Lng: o.Lng}
	if f.ds == nil {
		// The city is the built-in one whose region, in its own
		// projection, holds the first ping.
		for _, p := range []*sim.CityProfile{sim.Manhattan(), sim.SanFrancisco()} {
			if proj := geo.NewProjection(p.Origin); p.Region.Contains(proj.ToPlane(ll)) {
				f.proj, f.start = proj, o.Time
				f.ds = measure.NewDataset(measure.Config{Profile: p, Start: f.start}, 0)
			}
		}
		if f.ds == nil {
			return fmt.Errorf("analyze: the first ping, at %.6f,%.6f, is in no city's region", ll.Lat, ll.Lng)
		}
		f.feed = record.Feed{Sinks: []client.Sink{f.ds, f}}
	}
	err = f.feed.Row(&tsdb.Row{Time: o.Time, Series: series, Types: o.Types}, f.proj.ToPlane(ll))
	if errors.Is(err, record.ErrLate) {
		f.late++
	} else if err != nil {
		f.corrupt++ // a product the API does not know
	}
	return nil
}

// Observe implements client.Sink; the Dataset observes.
func (f *follower) Observe(int, geo.Point, *core.PingResponse) {}

// EndRound implements client.Sink: it prints every window whose deaths
// the round made final.
func (f *follower) EndRound(now int64) {
	f.recent = append(f.recent, now)[max(0, len(f.recent)+1-measure.DeathGraceRounds):]
	for len(f.recent) == measure.DeathGraceRounds && !f.done() && f.recent[0] >= f.start+int64(f.printed+1)*measure.Interval {
		f.printWindow(f.printed)
		f.printed++
	}
}

// count reads a count series' value: a bucket nothing was added to is 0.
func count(s *stats.Series, iv int) float64 {
	if v := s.Values[iv]; !math.IsNaN(v) {
		return v
	}
	return 0
}

func (f *follower) printWindow(iv int) {
	ds := f.ds
	w := [4]float64{ds.SurgeSeries().Values[iv], count(ds.SupplySeries(core.UberX), iv), ds.EWTSeries().Values[iv], count(ds.DeathSeries(core.UberX), iv)}
	for i, v := range w {
		f.cols[i] = append(f.cols[i], v)
	}
	fmt.Fprintf(f.out, "t=%d supply=%.0f deaths=%.0f ewt=%.2f surge=%.2f areas:", f.start+int64(iv)*measure.Interval, w[1], w[3], w[2], w[0])
	for a := range ds.NumAreas() {
		fmt.Fprintf(f.out, " %.0f/%.0f/%.2f/%.2f", count(ds.AreaSupplySeries(a), iv), count(ds.AreaDeathSeries(a), iv),
			ds.AreaEWTSeries(a).Values[iv], ds.AreaSurgeSeries(a).Values[iv])
	}
	fmt.Fprintln(f.out)
}

// summarize prints the window count, the pings skipped, and the Pearson
// correlations of mean surge with UberX supply, EWT and deaths over the
// printed windows.
func (f *follower) summarize() {
	fmt.Fprintf(f.out, "\n%d windows\nskipped: %d undecodable, %d older than their round, %d duplicate pings\n",
		f.printed, f.corrupt, f.late, f.pings.Dups)
	for i, name := range []string{"supply", "EWT", "deaths"} {
		if r, err := stats.Pearson(f.cols[0], f.cols[i+1]); err == nil && !math.IsNaN(r) {
			fmt.Fprintf(f.out, "  corr(surge, %s): %+.3f\n", name, r)
		} else {
			fmt.Fprintf(f.out, "  corr(surge, %s): (degenerate)\n", name)
		}
	}
}
