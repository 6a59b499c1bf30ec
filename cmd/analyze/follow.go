// Streaming mode: instead of replaying a finished store, -follow tails a
// live bus directory (uberd -bus DIR) and reports each sealed 5-minute
// window as it completes, with the Fig 20/21-style correlations over the
// windows seen so far printed at the end. It reads the pings topic for
// supply/EWT/surge and the cars topic for dispatched demand; events are
// merged in poll order, so cross-topic skew within one poll interval is
// tolerated by the analyzer's late-event handling.

package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/bus"
	"repro/internal/measure"
)

func runFollow(ctx context.Context, busDir string, maxWindows int, poll time.Duration, stdout, stderr io.Writer) int {
	var tails []*bus.Tailer
	for _, topic := range []string{bus.TopicPings, bus.TopicCars} {
		tl, err := bus.OpenTail(busDir, topic)
		if err != nil {
			fmt.Fprintf(stderr, "warning: %v (topic skipped)\n", err)
			continue
		}
		defer tl.Close()
		tails = append(tails, tl)
	}
	if len(tails) == 0 {
		fmt.Fprintln(stderr, "no tailable topics; is this a -bus directory?")
		return 1
	}

	a := measure.NewStreamAnalyzer(measure.StreamConfig{})
	sealed := 0
	var batch []bus.Event
	for ctx.Err() == nil && (maxWindows == 0 || sealed < maxWindows) {
		// One poll gathers every topic before feeding, merged by event
		// time — otherwise catching up on a long backlog would drain one
		// topic whole, sealing windows the other topics still have
		// events for.
		batch = batch[:0]
		for _, tl := range tails {
			batch = tl.Poll(batch)
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].Time < batch[j].Time })
		for _, ev := range batch {
			if w := a.Feed(ev); w != nil {
				fmt.Fprintln(stdout, w)
				sealed++
			}
		}
		if len(batch) == 0 {
			select {
			case <-ctx.Done():
			case <-time.After(poll):
			}
		}
	}
	if w := a.Flush(); w != nil {
		fmt.Fprintf(stdout, "%s (partial)\n", w)
	}

	surgeSupply, surgeEWT, surgeDemand, n := a.Correlations()
	fmt.Fprintf(stdout, "\n%d windows", n)
	if a.Late > 0 {
		fmt.Fprintf(stdout, " (%d late events folded forward)", a.Late)
	}
	if a.Corrupt > 0 {
		fmt.Fprintf(stdout, " (%d undecodable ping payloads skipped)", a.Corrupt)
	}
	fmt.Fprintln(stdout)
	printCorr := func(name string, r float64) {
		if math.IsNaN(r) {
			fmt.Fprintf(stdout, "  corr(surge, %s): (degenerate)\n", name)
			return
		}
		fmt.Fprintf(stdout, "  corr(surge, %s): %+.3f\n", name, r)
	}
	printCorr("supply", surgeSupply)
	printCorr("EWT", surgeEWT)
	printCorr("dispatches", surgeDemand)
	return 0
}
