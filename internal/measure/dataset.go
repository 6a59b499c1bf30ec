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
// reduced as it streams.
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

// deathGraceRounds is how many consecutive missed rounds confirm a death.
// One missed round can be a visibility flicker (the car was the 9th
// nearest for a moment); two misses (10 s) means it is gone.
const deathGraceRounds = 2

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
	// Start and End bound the recorded series, in simulation seconds.
	Start, End int64
	// ClientAreas maps each campaign client index to its surge area.
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
	areaSurge  [][]float64 // [area][interval] median client multiplier
	areaSurgeN [][]int     // sample counts backing the median
	areaBuf    [][][]float64

	// Region-wide 5-minute means.
	ewtAcc   *stats.Accumulator
	surgeAcc *stats.Accumulator

	// Raw samples for the CDFs (UberX).
	EWTSamples   []float32
	SurgeSamples []float32

	// Per-client UberX surge state and change logs.
	curSurge []float64
	Changes  [][]SurgeChange

	// Heatmaps: per client, unique UberX cars per day and mean EWT.
	clientDaySeen []map[string]bool
	clientDay     []int64
	ClientCarDays [][]int // per client: unique cars for each completed day
	clientEWTSum  []float64
	clientEWTN    []int64

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
		cfg:        cfg,
		areas:      areas,
		projection: geo.NewProjection(cfg.Profile.Origin),
		nIntervals: n,
		cars:       make(map[string]*carState),
		lives:      make(map[string]*lifeRecord),
		seenRound:  make(map[string]bool),
		supplyAcc:  make(map[core.VehicleType]*stats.Accumulator),
		deathAcc:   make(map[core.VehicleType]*stats.Accumulator),
		ewtAcc:     stats.NewAccumulator(cfg.Start, Interval, n),
		surgeAcc:   stats.NewAccumulator(cfg.Start, Interval, n),
		curSurge:   make([]float64, nClients),
		Changes:    make([][]SurgeChange, nClients),
		lifespans:  make(map[core.VehicleType][]float64),
		ClientGaps: make([]int64, nClients),
		gapped:     make(map[int32]bool),
	}
	tracked := cfg.TrackTypes
	if tracked == nil {
		tracked = TrackedTypes
	}
	for _, vt := range tracked {
		d.supplyAcc[vt] = stats.NewAccumulator(cfg.Start, Interval, n)
		d.deathAcc[vt] = stats.NewAccumulator(cfg.Start, Interval, n)
	}
	for range areas {
		d.areaSupply = append(d.areaSupply, stats.NewAccumulator(cfg.Start, Interval, n))
		d.areaDeath = append(d.areaDeath, stats.NewAccumulator(cfg.Start, Interval, n))
		d.areaEWT = append(d.areaEWT, stats.NewAccumulator(cfg.Start, Interval, n))
		d.areaSurge = append(d.areaSurge, make([]float64, n))
		d.areaSurgeN = append(d.areaSurgeN, make([]int, n))
		d.areaBuf = append(d.areaBuf, make([][]float64, n))
	}
	for i := range d.curSurge {
		d.curSurge[i] = 1
	}
	d.clientDaySeen = make([]map[string]bool, nClients)
	d.clientDay = make([]int64, nClients)
	d.ClientCarDays = make([][]int, nClients)
	d.clientEWTSum = make([]float64, nClients)
	d.clientEWTN = make([]int64, nClients)
	for i := range d.clientDaySeen {
		d.clientDaySeen[i] = make(map[string]bool)
		d.clientDay[i] = -1
	}
	return d
}

func (d *Dataset) intervalIndex(t int64) int {
	i := int((t - d.cfg.Start) / Interval)
	if i < 0 || i >= d.nIntervals {
		return -1
	}
	return i
}

// Observe implements client.Sink.
func (d *Dataset) Observe(clientIdx int, pos geo.Point, resp *core.PingResponse) {
	now := resp.Time
	iv := d.intervalIndex(now)
	day := now / sim.SecondsPerDay

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

		if clientIdx < len(d.curSurge) {
			if ts.Surge != d.curSurge[clientIdx] {
				d.Changes[clientIdx] = append(d.Changes[clientIdx], SurgeChange{
					Time: now, From: d.curSurge[clientIdx], To: ts.Surge,
				})
				d.curSurge[clientIdx] = ts.Surge
			}
			// Area-level features.
			if a := d.clientArea(clientIdx); a >= 0 {
				d.areaEWT[a].Add(now, ts.EWTSeconds/60)
				if iv >= 0 {
					d.areaBuf[a][iv] = append(d.areaBuf[a][iv], ts.Surge)
				}
			}
			// Heatmap EWT.
			d.clientEWTSum[clientIdx] += ts.EWTSeconds / 60
			d.clientEWTN[clientIdx]++
			// Heatmap unique cars per day.
			if d.clientDay[clientIdx] != day {
				if d.clientDay[clientIdx] >= 0 {
					d.ClientCarDays[clientIdx] = append(d.ClientCarDays[clientIdx], len(d.clientDaySeen[clientIdx]))
				}
				d.clientDaySeen[clientIdx] = make(map[string]bool)
				d.clientDay[clientIdx] = day
			}
			for ci := range ts.Cars {
				d.clientDaySeen[clientIdx][ts.Cars[ci].ID] = true
			}
		}
	}
}

func (d *Dataset) clientArea(clientIdx int) int {
	if clientIdx < len(d.cfg.ClientAreas) {
		return d.cfg.ClientAreas[clientIdx]
	}
	return -1
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
	// Positions arrive as lat/lng; project once per observation.
	cs.lastPos = d.proj(car.Pos)

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

// proj converts a wire coordinate to plane coordinates using the profile
// origin (same projection the campaign used to place clients).
func (d *Dataset) proj(ll geo.LatLng) geo.Point {
	return d.projection.ToPlane(ll)
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
// deathGraceRounds consecutive rounds) and applies the edge filter.
// Rounds in which a car's observers gapped don't advance its missed
// count — without this, transport failures against a remote backend read
// as bursts of phantom demand (the skew the paper's §3.3 accounting
// avoids).
func (d *Dataset) EndRound(now int64) {
	for id, cs := range d.cars {
		if d.seenRound[id] {
			continue
		}
		if d.blindMiss(cs) {
			continue
		}
		cs.missed++
		if cs.missed < deathGraceRounds {
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
}

// Close finalizes streaming state: flushes per-day heatmap counts, folds
// surge sample buffers into medians, and materializes lifespans.
func (d *Dataset) Close() {
	for i := range d.clientDaySeen {
		if d.clientDay[i] >= 0 && len(d.clientDaySeen[i]) > 0 {
			d.ClientCarDays[i] = append(d.ClientCarDays[i], len(d.clientDaySeen[i]))
		}
	}
	for a := range d.areaBuf {
		for iv, buf := range d.areaBuf[a] {
			if len(buf) == 0 {
				d.areaSurge[a][iv] = 1
				continue
			}
			d.areaSurge[a][iv] = stats.NewCDF(buf).Median()
			d.areaSurgeN[a][iv] = len(buf)
		}
		d.areaBuf[a] = nil
	}
	for _, lr := range d.lives {
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
	copy(s.Values, d.areaSurge[area])
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
	for _, lr := range d.lives {
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
	if d.clientEWTN[clientIdx] == 0 {
		return math.NaN()
	}
	return d.clientEWTSum[clientIdx] / float64(d.clientEWTN[clientIdx])
}
