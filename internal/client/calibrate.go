package client

import (
	"repro/internal/core"
	"repro/internal/geo"
)

// CalibrationResult summarizes the §3.4 calibration experiments at one
// location.
type CalibrationResult struct {
	// Deterministic reports whether co-located clients always observed
	// exactly the same cars, multipliers, and EWTs.
	Deterministic bool
	// Radius is the measured visibility radius in meters (the four-walker
	// experiment).
	Radius float64
	// Steps is how many 20-meter walk steps the experiment took.
	Steps int
}

// CheckDeterminism places nClients at loc for the given duration and
// verifies they all receive identical responses each round — the paper's
// first calibration finding ("the data received from pingClient is
// deterministic"). The backend is advanced via b.
func CheckDeterminism(b Stepper, svc core.Service, reg Registrar, loc geo.LatLng, nClients int, duration int64) (bool, error) {
	ids := make([]string, nClients)
	for i := range ids {
		ids[i] = clientName("det", i)
		if err := reg.Register(ids[i]); err != nil {
			return false, err
		}
	}
	// The first client's answer and each later one's need their own
	// responses: filled into one, they would always compare equal.
	var ref, cur core.PingResponse
	end := b.Now() + duration
	for b.Now() < end {
		b.Step()
		for i, id := range ids {
			dst := &cur
			if i == 0 {
				dst = &ref
			}
			if err := svc.PingInto(id, loc, dst); err != nil {
				return false, err
			}
			if i > 0 && !sameResponse(&ref, &cur) {
				return false, nil
			}
		}
	}
	return true, nil
}

// sameResponse compares the car IDs, EWTs, and surge multipliers of two
// responses. Surge is compared per the February datastream semantics
// (jitter, when enabled, makes client streams diverge — which is exactly
// what this check is designed to surface).
func sameResponse(a, b *core.PingResponse) bool {
	if len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		ta, tb := &a.Types[i], &b.Types[i]
		if ta.Type != tb.Type || ta.Surge != tb.Surge || ta.EWTSeconds != tb.EWTSeconds {
			return false
		}
		if len(ta.Cars) != len(tb.Cars) {
			return false
		}
		for j := range ta.Cars {
			if ta.Cars[j].ID != tb.Cars[j].ID {
				return false
			}
		}
	}
	return true
}

// MeasureVisibilityRadius runs the four-walker experiment of §3.4: four
// clients start at the same point and walk 20 meters NE, NW, SE, and SW
// respectively every 5 seconds; the experiment halts when the four
// clients' visible-car sets (for vt) have an empty intersection. The
// radius is then 0.1768 × ΣD where D are the walkers' distances from the
// start (the paper's 45-45-90 triangle geometry).
func MeasureVisibilityRadius(b Stepper, svc core.Service, reg Registrar, proj *geo.Projection, start geo.Point, vt core.VehicleType) (CalibrationResult, error) {
	const stepMeters = 20
	diag := stepMeters / 1.41421356237 // per-axis component of a 20 m diagonal step
	dirs := [4]geo.Point{
		{X: diag, Y: diag},   // NE
		{X: -diag, Y: diag},  // NW
		{X: diag, Y: -diag},  // SE
		{X: -diag, Y: -diag}, // SW
	}
	ids := [4]string{}
	pos := [4]geo.Point{}
	for i := range ids {
		ids[i] = clientName("walk", i)
		if err := reg.Register(ids[i]); err != nil {
			return CalibrationResult{}, err
		}
		pos[i] = start
	}

	res := CalibrationResult{}
	var resp core.PingResponse
	for step := 0; ; step++ {
		b.Step()
		// Intersect the four visible-car ID sets.
		var inter map[string]bool
		for i := range ids {
			if err := svc.PingInto(ids[i], proj.ToLatLng(pos[i]), &resp); err != nil {
				return res, err
			}
			seen := make(map[string]bool)
			if st := resp.Status(vt); st != nil {
				for _, car := range st.Cars {
					seen[car.ID] = true
				}
			}
			if inter == nil {
				inter = seen
				continue
			}
			for id := range inter {
				if !seen[id] {
					delete(inter, id)
				}
			}
		}
		if len(inter) == 0 {
			var sumD float64
			for i := range pos {
				sumD += geo.Dist(start, pos[i])
			}
			res.Radius = 0.1768 * sumD
			res.Steps = step
			return res, nil
		}
		for i := range pos {
			pos[i] = pos[i].Add(dirs[i])
		}
		if step > 500 {
			// 10 km of walking without separation: something is wrong.
			res.Radius = -1
			res.Steps = step
			return res, nil
		}
	}
}

func clientName(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i))
}
