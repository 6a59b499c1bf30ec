// StreamAnalyzer: the always-on counterpart of Dataset. Where Dataset
// replays a finished campaign store, StreamAnalyzer consumes the live
// event bus (api.pings, sim.cars, surge.changes) and maintains the same
// 5-minute aggregates the paper's Figs 20/21 correlate — supply (unique
// visible cars), fulfilled demand (trip dispatches), EWT, and surge —
// windowed, so `analyze -follow` can report while the campaign runs.
//
// Scope: region-wide series only. The per-area breakdown needs each
// client's surge-area assignment, which the batch path takes from the
// campaign header; a live tail has no header, so it reports the
// city-wide aggregate and leaves per-area work to the stored campaign.

package measure

import (
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/stats"
)

// streamWindows bounds the sealed windows a StreamAnalyzer keeps for
// correlations: one day of 5-minute windows.
const streamWindows = 288

// WindowStats is one sealed aggregation window.
type WindowStats struct {
	// Start is the window's first simulation second.
	Start int64
	// Supply is the number of distinct car IDs observed in pings.
	Supply int
	// Dispatches counts trip-dispatch events (fulfilled demand).
	Dispatches int
	// MeanEWT is the mean UberX wait estimate over the window's pings,
	// in seconds; NaN-free (0 when no pings carried UberX).
	MeanEWT float64
	// MeanSurge is the mean UberX multiplier over the window's pings.
	MeanSurge float64
	// Pings counts the observations aggregated.
	Pings int
}

// StreamAnalyzer aggregates bus events into rolling windows of Interval
// seconds, the paper's 5 minutes. Not safe for concurrent use: one
// goroutine feeds it (the tail loop).
type StreamAnalyzer struct {
	cur      WindowStats
	curOpen  bool
	cars     map[string]struct{}
	ewtSum   float64
	surgeSum float64
	samples  int

	windows []WindowStats
	// Late counts events that arrived after their window was sealed
	// (skew between topics read in different polls); they are folded
	// into the current window rather than reopening a sealed one.
	Late int64
	// Corrupt counts ping events whose payload did not decode; they add
	// nothing to their window.
	Corrupt int64
}

// NewStreamAnalyzer returns an empty analyzer.
func NewStreamAnalyzer() *StreamAnalyzer {
	return &StreamAnalyzer{cars: make(map[string]struct{})}
}

// Feed consumes one bus event. When the event's time enters a new
// window, the finished window is sealed and returned (nil otherwise).
func (a *StreamAnalyzer) Feed(ev bus.Event) *WindowStats {
	var sealed *WindowStats
	start := ev.Time - ev.Time%Interval
	if a.curOpen && start > a.cur.Start {
		sealed = a.seal()
	}
	if !a.curOpen {
		a.cur = WindowStats{Start: start}
		a.curOpen = true
	}
	if start < a.cur.Start {
		a.Late++
	}
	switch ev.Kind {
	case bus.KindPing:
		a.feedPing(ev)
	case bus.KindTripDispatch:
		a.cur.Dispatches++
	}
	return sealed
}

func (a *StreamAnalyzer) feedPing(ev bus.Event) {
	if len(ev.Data) == 0 {
		return
	}
	o, err := bus.DecodeObservation(ev.Data)
	if err != nil {
		a.Corrupt++
		return
	}
	a.cur.Pings++
	for i := range o.Types {
		t := &o.Types[i]
		for _, c := range t.Cars {
			a.cars[c.ID] = struct{}{}
		}
		if t.Name == core.UberX.String() {
			a.ewtSum += t.EWT
			a.surgeSum += t.Surge
			a.samples++
		}
	}
}

func (a *StreamAnalyzer) seal() *WindowStats {
	w := a.cur
	w.Supply = len(a.cars)
	if a.samples > 0 {
		w.MeanEWT = a.ewtSum / float64(a.samples)
		w.MeanSurge = a.surgeSum / float64(a.samples)
	}
	a.windows = append(a.windows, w)
	if len(a.windows) > streamWindows {
		a.windows = a.windows[len(a.windows)-streamWindows:]
	}
	a.curOpen = false
	clear(a.cars)
	a.ewtSum, a.surgeSum, a.samples = 0, 0, 0
	return &w
}

// Flush seals and returns the partial current window, if any.
func (a *StreamAnalyzer) Flush() *WindowStats {
	if !a.curOpen {
		return nil
	}
	return a.seal()
}

// Correlations reports the Fig 20/21-style Pearson correlations of mean
// surge against supply, EWT, and dispatches across the sealed windows,
// and the window count they were computed over. A correlation whose
// inputs are degenerate (fewer than 3 windows, or a constant series)
// comes back NaN.
func (a *StreamAnalyzer) Correlations() (surgeSupply, surgeEWT, surgeDemand float64, n int) {
	n = len(a.windows)
	surge := make([]float64, n)
	supply := make([]float64, n)
	ewt := make([]float64, n)
	demand := make([]float64, n)
	for i, w := range a.windows {
		surge[i] = w.MeanSurge
		supply[i] = float64(w.Supply)
		ewt[i] = w.MeanEWT
		demand[i] = float64(w.Dispatches)
	}
	corr := func(y []float64) float64 {
		r, err := stats.Pearson(surge, y)
		if err != nil {
			return math.NaN()
		}
		return r
	}
	return corr(supply), corr(ewt), corr(demand), n
}

// String formats one window as the `analyze -follow` report line.
func (w *WindowStats) String() string {
	return fmt.Sprintf("t=%d supply=%d dispatches=%d ewt=%.1fs surge=%.2f pings=%d",
		w.Start, w.Supply, w.Dispatches, w.MeanEWT, w.MeanSurge, w.Pings)
}
