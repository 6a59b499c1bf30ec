package taxi

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stats"
)

// TickSeconds is the replay step, matching the ping cadence.
const TickSeconds = 5

// Replayer plays a Trace back in simulation time and serves the same
// eight-nearest query surface as the Uber backend, so the identical
// measurement code can be validated against known ground truth (§3.5).
// Taxis appear as the UberT product with no surge.
type Replayer struct {
	trace *Trace
	proj  *geo.Projection
	rng   *rand.Rand
	now   int64

	grid   *geo.SlotGrid // visible taxis, slot = session index
	segIdx []int         // per session: current segment cursor
	pubID  []string      // per session: public ID of the current idle period
}

var _ core.Service = (*Replayer)(nil)

// NewReplayer builds a replayer positioned at the trace start.
func NewReplayer(trace *Trace, seed int64) *Replayer {
	r := &Replayer{
		trace:  trace,
		proj:   geo.NewProjection(trace.Origin),
		rng:    rand.New(rand.NewSource(seed ^ 0x7471)),
		now:    trace.Start,
		grid:   geo.NewSlotGrid(trace.Region, 150, 1),
		segIdx: make([]int, len(trace.Sessions)),
		pubID:  make([]string, len(trace.Sessions)),
	}
	r.sync()
	return r
}

// Now returns the replay clock.
func (r *Replayer) Now() int64 { return r.now }

// Projection returns the trace's plane projection.
func (r *Replayer) Projection() *geo.Projection { return r.proj }

// Step advances the replay by one tick.
func (r *Replayer) Step() {
	r.now += TickSeconds
	r.sync()
}

// RunUntil advances the replay clock to end.
func (r *Replayer) RunUntil(end int64) {
	for r.now < end {
		r.Step()
	}
}

// sync brings every session's visibility and position up to r.now.
func (r *Replayer) sync() {
	for s := range r.trace.Sessions {
		segs := r.trace.Sessions[s].Segments
		i := r.segIdx[s]
		for i < len(segs) && segs[i].End <= r.now {
			// Leaving a segment; a new idle period will need a fresh ID.
			if segs[i].Visible {
				r.pubID[s] = ""
			}
			i++
		}
		r.segIdx[s] = i
		if i >= len(segs) || segs[i].Start > r.now || !segs[i].Visible {
			if r.grid.Contains(int32(s)) {
				r.grid.Remove(int32(s))
				r.pubID[s] = ""
			}
			continue
		}
		// Visible now.
		if r.pubID[s] == "" {
			r.pubID[s] = fmt.Sprintf("t%08x%08x", r.rng.Uint32(), r.rng.Uint32())
		}
		r.grid.Insert(0, int32(s), segs[i].Pos(r.now)) // moves it once seen
	}
}

// Register implements the campaign's Registrar; the taxi simulator has no
// accounts, so it always succeeds.
func (r *Replayer) Register(clientID string) error { return nil }

// PingInto writes the eight nearest available taxis into *dst as UberT,
// reusing dst's capacity.
func (r *Replayer) PingInto(clientID string, loc geo.LatLng, dst *core.PingResponse) error {
	p := r.proj.ToPlane(loc)
	var cars []core.CarView
	if cap(dst.Types) > 0 {
		cars = dst.Types[:1][0].Cars[:0]
	}
	for _, n := range r.grid.KNearest(0, p, core.MaxVisibleCars) {
		cars = append(cars, core.CarView{
			ID:  r.pubID[n.Slot],
			Pos: r.proj.ToLatLng(n.Pos),
		})
	}
	dst.Time = r.now
	dst.Types = append(dst.Types[:0], core.TypeStatus{
		Type:       core.UberT,
		TypeName:   core.UberT.String(),
		Cars:       cars,
		EWTSeconds: r.ewt(p),
		Surge:      1,
	})
	return nil
}

func (r *Replayer) ewt(p geo.Point) float64 {
	near := r.grid.KNearest(0, p, 1)
	if len(near) == 0 {
		return 2580
	}
	return 30 + near[0].Dist/taxiSpeed
}

// EstimatePrice serves flat taxi fares (no surge), mirroring UberT.
func (r *Replayer) EstimatePrice(clientID string, loc geo.LatLng) ([]core.PriceEstimate, error) {
	return []core.PriceEstimate{core.DefaultFares()[core.UberT].Estimate(core.UberT, 1)}, nil
}

// EstimateTime serves the nearest-taxi EWT.
func (r *Replayer) EstimateTime(clientID string, loc geo.LatLng) ([]core.TimeEstimate, error) {
	p := r.proj.ToPlane(loc)
	return []core.TimeEstimate{{TypeName: core.UberT.String(), EWTSeconds: r.ewt(p)}}, nil
}

// GroundTruth computes the true supply (unique available taxis inside the
// measurement rect per interval) and demand (pickups per interval) series
// from the trace itself — the quantities Fig 4 compares the measured
// series against.
func (t *Trace) GroundTruth(start, end, interval int64) (supply, deaths *stats.Series) {
	n := int((end - start) / interval)
	if n < 1 {
		n = 1
	}
	supply = stats.NewSeries(start, interval, n)
	deaths = stats.NewSeries(start, interval, n)
	for i := 0; i < n; i++ {
		supply.Values[i] = 0
		deaths.Values[i] = 0
	}
	for s := range t.Sessions {
		segs := t.Sessions[s].Segments
		for gi, seg := range segs {
			if !seg.Visible {
				continue
			}
			// Supply: each idle period contributes one "car" to every
			// interval during which it sits visibly inside the rect. The
			// unit is idle periods, not taxis, because public IDs are
			// randomized per idle period — the same unit the measured
			// unique-ID counts use.
			lo, hi := seg.Start, seg.End
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			for iv := (lo - start) / interval; iv*interval+start < hi; iv++ {
				if iv < 0 || int(iv) >= n {
					continue
				}
				// Count the taxi if it sits inside the rect at any point
				// of the interval (sampled every 30 s), so ground truth
				// is a superset of what any probe could observe.
				wLo := max64(seg.Start, start+iv*interval)
				wHi := min64(seg.End, start+(iv+1)*interval)
				for ts := wLo; ts <= wHi; ts += 30 {
					if t.MeasureRect.Contains(seg.Pos(ts)) {
						supply.Values[iv]++
						break
					}
				}
			}
			// Demand: a visible segment followed by a trip is a pickup.
			if gi+1 < len(segs) && !segs[gi+1].Visible &&
				seg.End >= start && seg.End < end &&
				t.MeasureRect.Contains(seg.To) {
				iv := (seg.End - start) / interval
				if iv >= 0 && int(iv) < n {
					deaths.Values[iv]++
				}
			}
		}
	}
	return supply, deaths
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
