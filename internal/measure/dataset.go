// Package measure turns raw pingClient streams into the quantities the
// paper analyzes: supply (unique cars per interval), fulfilled demand
// (car "deaths" with edge filtering, §3.3), car lifespans with
// short-lived-car cleaning (§4.1), EWT and surge distributions, per-area
// 5-minute feature series for the correlation and forecasting analyses
// (§5.4), spatial heatmaps (Figs 9, 10), and per-client surge change logs
// from which surge durations, update timing, and jitter events are
// recovered (Figs 13-17).
//
// Dataset implements client.Sink and aggregates online: nothing retains
// the raw 391 GB firehose the paper stored; every figure's input is
// reduced as it streams. It is the one estimator, fed by a campaign, a
// replayed store (analyze -in) or live pings (analyze -follow), whose
// Dataset keeps its raw EWT and surge CDF samples as a replayed one does.
package measure

import (
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Interval is the paper's analysis bucket: 5 minutes.
const Interval = 300

// DefaultEdgeMargin is how close to the measurement boundary a car's last
// position may be before its disappearance is discarded as a possible
// drive-out rather than a booking (§3.3, restriction 2).
const DefaultEdgeMargin = 100.0

// shortLivedSeconds is the cleaning threshold of §4.1: cars observed for
// less than this total time are treated as pass-through traffic near the
// visibility boundary and excluded from lifespan analysis.
const shortLivedSeconds = 120

// DeathGraceRounds is how many consecutive missed rounds confirm a death.
// One missed round can be a visibility flicker (the car was the 9th
// nearest for a moment); two misses (10 s) means it is gone. So an
// interval's deaths are final, barring gaps, once this many rounds at or
// past its end have ended.
const DeathGraceRounds = 2

// SurgeChange is one observed change in a client's surge multiplier.
type SurgeChange struct {
	Time int64
	From float64
	To   float64
}

// carState tracks one currently visible car.
type carState struct {
	vt       core.VehicleType
	lastSeen int64
	lastPos  geo.Point
	missed   int
	// interval indices at which this car was already counted.
	countedInterval     int
	areaCountedInterval [8]int // per area (supports up to 8 areas)
	// observers are the clients that saw the car in the most recent round
	// it was seen, and obsTime that round's timestamp. When the car goes
	// missing while one of its observers has a gap (failed ping), the miss
	// is not evidence of a death — the watcher was blind, not the car gone.
	observers []int32
	obsTime   int64
}

// clientState is one client's UberX state: its last multiplier, EWT sum
// and count, and the heatmap's day (-1 before the first ping) with the
// cars seen in it.
type clientState struct {
	surge, ewtSum float64
	ewtN, day     int64
	daySeen       map[string]bool
}

// lifeRecord tracks a car ID's total observed lifespan across trips.
type lifeRecord struct {
	vt    core.VehicleType
	first int64
	last  int64
	obs   int64 // raw observation rows mentioning the car
}

// Config configures a Dataset.
type Config struct {
	Profile *sim.CityProfile
	// Start and End bound the recorded series, in simulation seconds (End
	// 0: the series grow as rounds arrive).
	Start, End int64
	// ClientAreas maps each campaign client index to its surge area; a
	// client without one is placed by the position it pings from.
	ClientAreas []int
	// TrackTypes overrides TrackedTypes (the products with full
	// supply/death series) when non-nil. The taxi validation harness
	// tracks UberT only.
	TrackTypes []core.VehicleType
}

// Dataset is the streaming aggregation of one measurement campaign.
type Dataset struct {
	cfg        Config
	areas      []geo.Polygon
	projection *geo.Projection
	nIntervals int

	cars  map[string]*carState
	lives map[string]*lifeRecord

	seenRound map[string]bool // scratch: ids seen this round

	// Region-wide series per tracked product.
	supplyAcc map[core.VehicleType]*stats.Accumulator
	deathAcc  map[core.VehicleType]*stats.Accumulator

	// Per-area UberX series.
	areaSupply []*stats.Accumulator
	areaDeath  []*stats.Accumulator
	areaEWT    []*stats.Accumulator
	areaBuf    [][][]float64        // [area][interval] client multipliers
	folded     int                  // intervals [0, folded) hold their median
	accs       []*stats.Accumulator // every accumulator, to grow

	// Region-wide 5-minute means.
	ewtAcc   *stats.Accumulator
	surgeAcc *stats.Accumulator

	// Raw samples for the CDFs (UberX).
	EWTSamples   []float32
	SurgeSamples []float32

	// Per-client UberX state, surge change logs and, for the heatmaps,
	// unique cars for each completed day.
	clients       []clientState
	Changes       [][]SurgeChange
	ClientCarDays [][]int

	// Lifespan output per product (seconds), after cleaning.
	lifespans map[core.VehicleType][]float64
	// ShortLived counts cars filtered by the §4.1 cleaning rule.
	ShortLived int

	// Gaps counts failed pings reported by the campaign (the paper lost
	// ~2.5% of its observations the same way); ClientGaps breaks the count
	// down per client. gapped marks which clients gapped in the current
	// round so death detection can discount blind watchers.
	Gaps       int64
	ClientGaps []int64
	gapped     map[int32]bool
}

// TrackedTypes are the products with full supply/demand series (the four
// the paper plots in Fig 8).
var TrackedTypes = []core.VehicleType{core.UberX, core.UberXL, core.UberBLACK, core.UberSUV}

// NewDataset builds the aggregation state for a campaign with nClients
// clients.
func NewDataset(cfg Config, nClients int) *Dataset {
	n := int((cfg.End - cfg.Start) / Interval)
	if n < 1 {
		n = 1
	}
	areas := cfg.Profile.SurgeAreas()
	d := &Dataset{
		cfg:           cfg,
		areas:         areas,
		projection:    geo.NewProjection(cfg.Profile.Origin),
		nIntervals:    n,
		cars:          make(map[string]*carState),
		lives:         make(map[string]*lifeRecord),
		seenRound:     make(map[string]bool),
		supplyAcc:     make(map[core.VehicleType]*stats.Accumulator),
		deathAcc:      make(map[core.VehicleType]*stats.Accumulator),
		clients:       make([]clientState, 0, nClients),
		Changes:       make([][]SurgeChange, 0, nClients),
		ClientCarDays: make([][]int, 0, nClients),
		lifespans:     make(map[core.VehicleType][]float64),
		ClientGaps:    make([]int64, 0, nClients),
		gapped:        make(map[int32]bool),
	}
	acc := func() *stats.Accumulator {
		a := stats.NewAccumulator(cfg.Start, Interval, n)
		d.accs = append(d.accs, a)
		return a
	}
	d.ewtAcc, d.surgeAcc = acc(), acc()
	tracked := cfg.TrackTypes
	if tracked == nil {
		tracked = TrackedTypes
	}
	for _, vt := range tracked {
		d.supplyAcc[vt] = acc()
		d.deathAcc[vt] = acc()
	}
	for range areas {
		d.areaSupply = append(d.areaSupply, acc())
		d.areaDeath = append(d.areaDeath, acc())
		d.areaEWT = append(d.areaEWT, acc())
		d.areaBuf = append(d.areaBuf, make([][]float64, n))
	}
	for i := range nClients {
		d.client(i)
	}
	return d
}

// intervalIndex returns the interval t falls in (-1 outside the series),
// growing an open-ended Dataset's series to reach it.
func (d *Dataset) intervalIndex(t int64) int {
	i := int((t - d.cfg.Start) / Interval)
	for ; i >= d.nIntervals && d.cfg.End == 0; d.nIntervals++ {
		for _, a := range d.accs {
			a.Grow(d.nIntervals + 1)
		}
		for a := range d.areaBuf {
			d.areaBuf[a] = append(d.areaBuf[a], nil)
		}
	}
	if i < 0 || i >= d.nIntervals {
		return -1
	}
	return i
}

// client returns a client's state, first making the state of every client
// up to it.
func (d *Dataset) client(clientIdx int) *clientState {
	for len(d.clients) <= clientIdx {
		d.clients = append(d.clients, clientState{surge: 1, day: -1})
		d.Changes = append(d.Changes, nil)
		d.ClientCarDays = append(d.ClientCarDays, nil)
		d.ClientGaps = append(d.ClientGaps, 0)
	}
	return &d.clients[clientIdx]
}

// clientArea returns a client's surge area (-1 outside every area).
func (d *Dataset) clientArea(clientIdx int, pos geo.Point) int {
	if clientIdx < len(d.cfg.ClientAreas) {
		return d.cfg.ClientAreas[clientIdx]
	}
	return sim.AreaOf(d.areas, pos)
}

// Observe implements client.Sink.
func (d *Dataset) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	now := resp.Time
	iv := d.intervalIndex(now)
	day := now / sim.SecondsPerDay
	c := d.client(clientIdx)

	for ti := range resp.Types {
		ts := &resp.Types[ti]
		// Car bookkeeping for every product; series only for tracked ones.
		for ci := range ts.Cars {
			d.observeCar(ts.Type, &ts.Cars[ci], clientIdx, now, iv)
		}
		if ts.Type != core.UberX {
			continue
		}

		// UberX-only per-client records.
		d.EWTSamples = append(d.EWTSamples, float32(ts.EWTSeconds/60)) // minutes
		d.SurgeSamples = append(d.SurgeSamples, float32(ts.Surge))
		d.ewtAcc.Add(now, ts.EWTSeconds/60)
		d.surgeAcc.Add(now, ts.Surge)

		if ts.Surge != c.surge {
			d.Changes[clientIdx] = append(d.Changes[clientIdx], SurgeChange{
				Time: now, From: c.surge, To: ts.Surge,
			})
			c.surge = ts.Surge
		}
		// Area-level features.
		if a := d.clientArea(clientIdx, pos); a >= 0 {
			d.areaEWT[a].Add(now, ts.EWTSeconds/60)
			if iv >= 0 {
				d.areaBuf[a][iv] = append(d.areaBuf[a][iv], ts.Surge)
			}
		}
		// Heatmap EWT.
		c.ewtSum += ts.EWTSeconds / 60
		c.ewtN++
		// Heatmap unique cars per day.
		if c.day != day {
			if c.day >= 0 {
				d.ClientCarDays[clientIdx] = append(d.ClientCarDays[clientIdx], len(c.daySeen))
			}
			c.daySeen = make(map[string]bool)
			c.day = day
		}
		for ci := range ts.Cars {
			c.daySeen[ts.Cars[ci].ID] = true
		}
	}
}

// observeCar updates per-car tracking state and the supply series.
func (d *Dataset) observeCar(vt core.VehicleType, car *core.CarView, clientIdx int, now int64, iv int) {
	d.seenRound[car.ID] = true
	cs, ok := d.cars[car.ID]
	if !ok {
		cs = &carState{vt: vt, countedInterval: -1}
		for i := range cs.areaCountedInterval {
			cs.areaCountedInterval[i] = -1
		}
		d.cars[car.ID] = cs
	}
	if cs.obsTime != now {
		cs.observers = cs.observers[:0]
		cs.obsTime = now
	}
	cs.observers = append(cs.observers, int32(clientIdx))
	cs.lastSeen = now
	cs.missed = 0
	// Positions arrive as lat/lng; project once per observation, with the
	// profile origin the campaign placed its clients by.
	cs.lastPos = d.projection.ToPlane(car.Pos)

	if lr, ok := d.lives[car.ID]; ok {
		lr.last = now
		lr.obs++
	} else {
		d.lives[car.ID] = &lifeRecord{vt: vt, first: now, last: now, obs: 1}
	}

	if iv >= 0 && d.cfg.Profile.MeasureRect.Contains(cs.lastPos) {
		// Cars glimpsed outside the measurement rect (visible to boundary
		// clients) are not part of the region's supply.
		if acc, tracked := d.supplyAcc[vt]; tracked && cs.countedInterval != iv {
			cs.countedInterval = iv
			acc.AddCount(now, 1)
		}
		if vt == core.UberX {
			if a := sim.AreaOf(d.areas, cs.lastPos); a >= 0 && a < len(cs.areaCountedInterval) {
				if cs.areaCountedInterval[a] != iv {
					cs.areaCountedInterval[a] = iv
					d.areaSupply[a].AddCount(now, 1)
				}
			}
		}
	}
}

// ObserveGap implements client.GapSink: a failed ping is an explicit hole
// in the record. The gap is counted, and the client is marked blind for
// this round so cars only it was watching aren't mistaken for deaths.
func (d *Dataset) ObserveGap(clientIdx int, pos geo.Point, lastSeen int64, err error) {
	d.Gaps++
	if clientIdx >= 0 && clientIdx < len(d.ClientGaps) {
		d.ClientGaps[clientIdx]++
	}
	d.gapped[int32(clientIdx)] = true
}

// blindMiss reports whether a car's disappearance this round is explained
// by a gap: some client that saw it last round failed to ping this round,
// so the car may well still be there, unobserved.
func (d *Dataset) blindMiss(cs *carState) bool {
	if len(d.gapped) == 0 {
		return false
	}
	for _, c := range cs.observers {
		if d.gapped[c] {
			return true
		}
	}
	return false
}

// EndRound implements client.Sink: detects deaths (cars missing for
// DeathGraceRounds consecutive rounds) and applies the edge filter.
// Rounds in which a car's observers gapped don't advance its missed
// count — without this, transport failures against a remote backend read
// as bursts of phantom demand (the skew the paper's §3.3 accounting
// avoids).
func (d *Dataset) EndRound(now int64) {
	for id, cs := range d.cars { //det:unordered each car's death is its own; the series only count them
		if d.seenRound[id] {
			continue
		}
		if d.blindMiss(cs) {
			continue
		}
		cs.missed++
		if cs.missed < DeathGraceRounds {
			continue
		}
		// Confirmed disappearance. The lifespan record stays in d.lives so
		// a car re-appearing after a trip extends the same lifespan.
		delete(d.cars, id)
		// Edge filter: a car last seen near the measurement boundary may
		// simply have driven out (§3.3); only interior disappearances
		// count as fulfilled demand.
		if d.cfg.Profile.MeasureRect.DistToBoundary(cs.lastPos) <= DefaultEdgeMargin {
			continue
		}
		if acc, tracked := d.deathAcc[cs.vt]; tracked {
			acc.AddCount(cs.lastSeen, 1)
		}
		if cs.vt == core.UberX {
			if a := sim.AreaOf(d.areas, cs.lastPos); a >= 0 {
				d.areaDeath[a].AddCount(cs.lastSeen, 1)
			}
		}
	}
	clear(d.seenRound)
	clear(d.gapped)
	// Rounds arrive in time order: no later sample joins an interval
	// before now's.
	d.fold(min(int((now-d.cfg.Start)/Interval), d.nIntervals))
}

// fold replaces each area's multipliers in the intervals before the n-th
// with their median.
func (d *Dataset) fold(n int) {
	for ; d.folded < n; d.folded++ {
		for _, bufs := range d.areaBuf {
			bufs[d.folded] = []float64{surgeMedian(bufs[d.folded])}
		}
	}
}

// surgeMedian is an interval's median multiplier, 1 without a sample.
func surgeMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	return stats.NewCDF(xs).Median()
}

// Close finalizes streaming state: flushes per-day heatmap counts, folds
// surge sample buffers into medians, and materializes lifespans.
func (d *Dataset) Close() {
	for i, c := range d.clients {
		if c.day >= 0 && len(c.daySeen) > 0 {
			d.ClientCarDays[i] = append(d.ClientCarDays[i], len(c.daySeen))
		}
	}
	d.fold(d.nIntervals)
	for _, lr := range d.lives { //det:unordered whole seconds and counts: readers sort them, and any sum of them is exact
		span := float64(lr.last - lr.first)
		if span < shortLivedSeconds {
			d.ShortLived++
			continue
		}
		d.lifespans[lr.vt] = append(d.lifespans[lr.vt], span)
	}
}

// SupplySeries returns the region-wide unique-cars-per-interval series for
// a tracked product.
func (d *Dataset) SupplySeries(vt core.VehicleType) *stats.Series {
	if acc, ok := d.supplyAcc[vt]; ok {
		return acc.Sums()
	}
	return stats.NewSeries(d.cfg.Start, Interval, d.nIntervals)
}

// DeathSeries returns the region-wide deaths-per-interval series (the
// fulfilled-demand upper bound) for a tracked product.
func (d *Dataset) DeathSeries(vt core.VehicleType) *stats.Series {
	if acc, ok := d.deathAcc[vt]; ok {
		return acc.Sums()
	}
	return stats.NewSeries(d.cfg.Start, Interval, d.nIntervals)
}

// AreaSupplySeries returns UberX unique cars per interval for one area.
func (d *Dataset) AreaSupplySeries(area int) *stats.Series { return d.areaSupply[area].Sums() }

// AreaDeathSeries returns UberX deaths per interval for one area.
func (d *Dataset) AreaDeathSeries(area int) *stats.Series { return d.areaDeath[area].Sums() }

// AreaEWTSeries returns the mean UberX EWT (minutes) per interval for one
// area.
func (d *Dataset) AreaEWTSeries(area int) *stats.Series { return d.areaEWT[area].Means() }

// AreaSurgeSeries returns the median observed UberX multiplier per
// interval for one area (medians discard jitter, as the paper does).
func (d *Dataset) AreaSurgeSeries(area int) *stats.Series {
	s := stats.NewSeries(d.cfg.Start, Interval, d.nIntervals)
	for iv, xs := range d.areaBuf[area] {
		s.Values[iv] = surgeMedian(xs)
	}
	return s
}

// EWTSeries returns the region-wide mean EWT (minutes) per interval.
func (d *Dataset) EWTSeries() *stats.Series { return d.ewtAcc.Means() }

// SurgeSeries returns the region-wide mean multiplier per interval.
func (d *Dataset) SurgeSeries() *stats.Series { return d.surgeAcc.Means() }

// Lifespans returns the cleaned lifespans (seconds) for a product. Call
// Close first.
func (d *Dataset) Lifespans(vt core.VehicleType) []float64 { return d.lifespans[vt] }

// CleaningStats summarizes the §4.1 data-cleaning step (the content of
// the paper's truncated Figs 5/6): how many distinct car IDs were seen,
// how many the short-lived filter removed, and the observation counts
// per surviving car.
type CleaningStats struct {
	TotalCars  int
	ShortLived int
	// ObsPerCar is each surviving car's raw observation count.
	ObsPerCar []float64
}

// Cleaning computes the cleaning summary. Call Close first.
func (d *Dataset) Cleaning() CleaningStats {
	st := CleaningStats{TotalCars: len(d.lives), ShortLived: d.ShortLived}
	for _, lr := range d.lives { //det:unordered whole seconds and counts: readers sort them, and any sum of them is exact
		if float64(lr.last-lr.first) < shortLivedSeconds {
			continue
		}
		st.ObsPerCar = append(st.ObsPerCar, float64(lr.obs))
	}
	return st
}

// NumAreas returns the number of surge areas.
func (d *Dataset) NumAreas() int { return len(d.areas) }

// ClientMeanEWT returns a client's mean observed EWT in minutes (NaN if
// the client saw nothing).
func (d *Dataset) ClientMeanEWT(clientIdx int) float64 {
	c := &d.clients[clientIdx]
	if c.ewtN == 0 {
		return math.NaN()
	}
	return c.ewtSum / float64(c.ewtN)
}
