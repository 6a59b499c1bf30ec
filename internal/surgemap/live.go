// LiveTail: the streaming counterpart of Prober. Where Prober infers the
// surge partition from outside by probing the price API, LiveTail rides
// the surge.changes bus topic — every area's multiplier move as the
// engine commits it — and maintains the current city surge map and each
// area's change count, with no polling and no API quota.

package surgemap

import (
	"fmt"
	"strings"

	"repro/internal/bus"
)

// LiveTail folds surge.changes events into a live multiplier map. Not
// safe for concurrent use: one goroutine feeds it (the tail loop).
type LiveTail struct {
	cur     []float64
	changes []int
	// lastTime is the newest event time applied.
	lastTime int64
}

// NewLiveTail tracks numAreas areas, all starting at multiplier 1.
func NewLiveTail(numAreas int) *LiveTail {
	lt := &LiveTail{
		cur:     make([]float64, numAreas),
		changes: make([]int, numAreas),
	}
	for i := range lt.cur {
		lt.cur[i] = 1
	}
	return lt
}

// Apply folds one event in; events of other kinds or out-of-range areas
// are ignored. It reports whether the event changed the map.
func (lt *LiveTail) Apply(ev bus.Event) bool {
	if ev.Kind != bus.KindSurgeChange || ev.Area < 0 || int(ev.Area) >= len(lt.cur) {
		return false
	}
	a := int(ev.Area)
	lt.cur[a] = ev.Num
	lt.changes[a]++
	if ev.Time > lt.lastTime {
		lt.lastTime = ev.Time
	}
	return true
}

// Multipliers returns the current per-area multipliers (live slice; do
// not mutate).
func (lt *LiveTail) Multipliers() []float64 { return lt.cur }

// Changes returns how many multiplier moves each area has had.
func (lt *LiveTail) Changes() []int { return lt.changes }

// LastTime is the newest applied event's simulation time.
func (lt *LiveTail) LastTime() int64 { return lt.lastTime }

// Surging counts areas currently above 1×.
func (lt *LiveTail) Surging() int {
	n := 0
	for _, m := range lt.cur {
		if m > 1 {
			n++
		}
	}
	return n
}

// ASCII renders the live map one line per area: index, multiplier, a
// bar proportional to the multiplier, and the change count.
func (lt *LiveTail) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%d  %d/%d areas surging\n", lt.lastTime, lt.Surging(), len(lt.cur))
	for a, m := range lt.cur {
		bar := int((m - 1) * 8)
		if bar < 0 {
			bar = 0
		}
		if bar > 32 {
			bar = 32
		}
		fmt.Fprintf(&b, "  area %2d  %4.2fx %-32s %d changes\n",
			a, m, strings.Repeat("#", bar), lt.changes[a])
	}
	return b.String()
}
