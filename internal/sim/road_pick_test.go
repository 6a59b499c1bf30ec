package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
)

// clearFleet takes every seeded driver offline so a test can lay out a
// hand-built fleet at exact positions.
func clearFleet(w *World) {
	f := &w.fleet
	for s := int32(0); int(s) < f.high; s++ {
		if f.live[s] {
			w.removeSlot(s)
		}
	}
}

// TestRoadPickCandidateRequeriesWhenNoInRadius is the regression test for
// the dispatch fallback gate: the phase-start candidate list can be
// "non-empty" yet useless — its near entries booked away by earlier
// requests this tick, its only idle entry beyond the dispatch radius.
// The old `n == 0` gate counted that far idle candidate and skipped the
// live-grid re-query, failing a request the euclidean mechanism would
// have served; the fix re-queries whenever no in-radius candidate was
// found. Both movement models go through the same pickCandidate; without
// the in-radius car C the re-query finds only the far car again and the
// request goes unmet with nothing booked.
func TestRoadPickCandidateRequeriesWhenNoInRadius(t *testing.T) {
	for _, tc := range []struct {
		name         string
		roads, withC bool
	}{
		{name: "road", roads: true, withC: true},
		{name: "euclid", withC: true},
		{name: "euclid/nearest idle car out of radius"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			profile := Manhattan()
			profile.RoadNetwork = tc.roads
			w := NewWorld(Config{Profile: profile, Seed: 1})
			clearFleet(w)

			pickup := geo.Point{X: -1600, Y: -1400}
			// A: nearest at phase start, booked away mid-tick below.
			a := w.addDriver(core.UberX, geo.Point{X: -1550, Y: -1400})
			// B: idle but far beyond dispatchRadius — the candidate that fooled
			// the n == 0 gate.
			b := w.addDriver(core.UberX, geo.Point{X: 1650, Y: 1450})
			if d := geo.Dist(pickup, w.fleet.pos[b]); d <= dispatchRadius {
				t.Fatalf("test geometry broken: far driver at %.0f m, need > %d", d, int64(dispatchRadius))
			}
			// C: idle and within radius, but absent from the frozen list (at phase
			// start it was ranked behind since-booked cars).
			want := int32(-1)
			if tc.withC {
				want = w.addDriver(core.UberX, geo.Point{X: -1100, Y: -1400})
			}

			sub := &subPlan{pickup: pickup, area: -1, vt: uint8(core.UberX), candN: 2}
			sub.cand[0] = slotDist{slot: a, dist: geo.Dist(pickup, w.fleet.pos[a])}
			sub.cand[1] = slotDist{slot: b, dist: geo.Dist(pickup, w.fleet.pos[b])}

			// An earlier request this tick books A: off the idle grid, en route.
			w.grid.Remove(a)
			w.fleet.state[a] = uint8(StateEnRoute)

			if got := w.pickCandidate(sub); got != want {
				t.Fatalf("picked slot %d, want %d (-1: none in radius)", got, want)
			}
			if tc.withC {
				return
			}
			w.commitSub(sub)
			if w.TotalUnmet != 1 || w.TotalPickups != 0 || DriverState(w.fleet.state[b]) != StateIdle {
				t.Fatalf("unmet=%d pickups=%d far car state=%v, want 1 unmet, nothing booked",
					w.TotalUnmet, w.TotalPickups, DriverState(w.fleet.state[b]))
			}
		})
	}
}
