// Package transition implements the §5.5 driver state-machine analysis
// (Fig 22): cars observed by the measurement campaign are treated as
// state machines over 5-minute intervals, classified per interval
// transition as New, Old, Move-in, Move-out, or Dying relative to each
// surge area, and the per-area shares are compared between times when all
// areas surge equally and times when one area's multiplier is at least
// 0.2 above all of its neighbors.
package transition

import (
	"sort"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/sim"
)

// State is a car's classification for one interval transition.
type State int

// The five states of Fig 22.
const (
	StateNew State = iota
	StateOld
	StateIn
	StateOut
	StateDying
	numStates
)

// NumStates is the number of transition states.
const NumStates = int(numStates)

// String names the state as the figure labels it.
func (s State) String() string {
	switch s {
	case StateNew:
		return "New"
	case StateOld:
		return "Old"
	case StateIn:
		return "In"
	case StateOut:
		return "Out"
	case StateDying:
		return "Dying"
	default:
		return "?"
	}
}

// Condition partitions interval transitions by the surge configuration of
// the preceding interval.
type Condition int

// Fig 22's two conditions (transitions not matching either are dropped).
const (
	CondEqual   Condition = iota // all areas share one multiplier
	CondSurging                  // the area is ≥ 0.2 above every neighbor
	numConds
)

// SurgeMargin is the paper's "at least 0.2 higher than its neighbors".
const SurgeMargin = 0.2

// Sink implements client.Sink, accumulating Fig 22's transition counts.
type Sink struct {
	areas       []geo.Polygon
	clientAreas []int
	proj        *geo.Projection

	// car -> last observed area, current and previous interval.
	cur, prev map[string]int
	// surge samples per area for the current interval.
	surgeBuf [][]float64
	// previous interval's median multiplier per area.
	prevSurge []float64
	havePrev  bool

	curInterval int64

	// counts[cond][state][area]: events in the area during intervals
	// where the area's condition was cond; denom[cond][state][area]: all
	// events city-wide during those same intervals.
	counts [numConds][numStates][]float64
	denom  [numConds][numStates][]float64
	// Intervals seen per condition per area (CondSurging is per-area).
	condIntervals [numConds][]int
}

// NewSink builds a sink for a city profile and the campaign's client
// positions.
func NewSink(profile *sim.CityProfile, clientPositions []geo.Point) *Sink {
	areas := profile.SurgeAreas()
	s := &Sink{
		areas: areas,
		proj:  geo.NewProjection(profile.Origin),
		cur:   make(map[string]int),
		prev:  make(map[string]int),
	}
	for _, p := range clientPositions {
		s.clientAreas = append(s.clientAreas, sim.AreaOf(areas, p))
	}
	s.surgeBuf = make([][]float64, len(areas))
	s.prevSurge = make([]float64, len(areas))
	for c := range s.counts {
		for st := range s.counts[c] {
			s.counts[c][st] = make([]float64, len(areas))
			s.denom[c][st] = make([]float64, len(areas))
		}
		s.condIntervals[c] = make([]int, len(areas))
	}
	return s
}

// Observe implements client.Sink: track UberX car areas and per-area
// surge samples.
func (s *Sink) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	st := resp.Status(core.UberX)
	if st == nil {
		return
	}
	if clientIdx < len(s.clientAreas) {
		if a := s.clientAreas[clientIdx]; a >= 0 {
			s.surgeBuf[a] = append(s.surgeBuf[a], st.Surge)
		}
	}
	for i := range st.Cars {
		p := s.proj.ToPlane(st.Cars[i].Pos)
		if a := sim.AreaOf(s.areas, p); a >= 0 {
			s.cur[st.Cars[i].ID] = a
		}
	}
}

// EndRound implements client.Sink: at each 5-minute boundary, classify
// the interval transition and rotate state.
func (s *Sink) EndRound(now int64) {
	iv := now / measure.Interval
	if iv == s.curInterval {
		return
	}
	s.flush()
	s.curInterval = iv
}

// flush closes the current interval: computes its surge medians,
// classifies transitions from the previous interval, and rotates.
func (s *Sink) flush() {
	surge := make([]float64, len(s.areas))
	for a := range s.areas {
		surge[a] = median(s.surgeBuf[a])
		s.surgeBuf[a] = s.surgeBuf[a][:0]
	}
	if s.havePrev {
		s.classify()
	}
	s.prev, s.cur = s.cur, make(map[string]int)
	copy(s.prevSurge, surge)
	s.havePrev = true
}

// ConditionOf returns Fig 22's condition for one area, given every area's
// multiplier over the previous interval: CondEqual when all areas had the
// same one, CondSurging when area's was at least SurgeMargin above every
// other area's, and -1 for neither.
func ConditionOf(prev []float64, area int) Condition {
	equal := true
	for a := 1; a < len(prev); a++ {
		equal = equal && prev[a] == prev[0]
	}
	if equal {
		return CondEqual
	}
	for a, m := range prev {
		if a != area && prev[area] < m+SurgeMargin {
			return -1
		}
	}
	return CondSurging
}

// classify compares the previous and current interval snapshots.
func (s *Sink) classify() {
	// Per-interval event counts: ev[state][area] and city totals.
	var ev [numStates][]float64
	var total [numStates]float64
	for st := range ev {
		ev[st] = make([]float64, len(s.areas))
	}
	add := func(state State, area int) {
		ev[state][area]++
		total[state]++
	}
	for id, curArea := range s.cur { //det:unordered each car adds 1 to whole-number counts, exact in any order
		prevArea, existed := s.prev[id]
		switch {
		case !existed:
			add(StateNew, curArea)
		case prevArea == curArea:
			add(StateOld, curArea)
		default:
			add(StateIn, curArea)
			add(StateOut, prevArea)
		}
	}
	for id, prevArea := range s.prev { //det:unordered each car adds 1 to whole-number counts, exact in any order
		if _, alive := s.cur[id]; !alive {
			add(StateDying, prevArea)
		}
	}
	// Attribute the interval to each area's condition.
	for a := range s.areas {
		cond := ConditionOf(s.prevSurge, a)
		if cond < 0 {
			continue
		}
		s.condIntervals[cond][a]++
		for st := 0; st < NumStates; st++ {
			s.counts[cond][st][a] += ev[st][a]
			s.denom[cond][st][a] += total[State(st)]
		}
	}
}

// Close flushes the trailing interval.
func (s *Sink) Close() { s.flush() }

// Share returns the Fig 22 quantity: of all cars city-wide in `state`
// during intervals where `area` was under `cond`, the fraction located in
// the area itself.
func (s *Sink) Share(cond Condition, state State, area int) float64 {
	if s.denom[cond][state][area] == 0 {
		return 0
	}
	return s.counts[cond][state][area] / s.denom[cond][state][area]
}

// Intervals returns how many interval transitions matched the condition
// for the area.
func (s *Sink) Intervals(cond Condition, area int) int {
	return s.condIntervals[cond][area]
}

// NumAreas returns the number of surge areas.
func (s *Sink) NumAreas() int { return len(s.areas) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return c[len(c)/2]
}
