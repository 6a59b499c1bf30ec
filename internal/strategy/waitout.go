package strategy

import "repro/internal/measure"

// WaitOutResult evaluates the paper's §5.2 takeaway — "savvy Uber
// passengers should wait-out surges rather than pay higher prices" — on a
// recorded multiplier stream: at every surge onset, compare the onset
// multiplier with the multiplier waitSeconds later.
type WaitOutResult struct {
	// Cases is the number of surge onsets evaluated.
	Cases int
	// Improved counts onsets where waiting yielded a strictly lower
	// multiplier; Cleared counts those where surge was fully gone.
	Improved int
	Cleared  int
	// MeanSaving is the average multiplier reduction across all cases
	// (zero or negative cases included).
	MeanSaving float64
	// MeanOnset and MeanAfter are the average multipliers at onset and
	// after waiting.
	MeanOnset float64
	MeanAfter float64
}

// ImprovedFrac returns the fraction of onsets where waiting helped.
func (r WaitOutResult) ImprovedFrac() float64 {
	if r.Cases == 0 {
		return 0
	}
	return float64(r.Improved) / float64(r.Cases)
}

// ClearedFrac returns the fraction of onsets where surge ended entirely.
func (r WaitOutResult) ClearedFrac() float64 {
	if r.Cases == 0 {
		return 0
	}
	return float64(r.Cleared) / float64(r.Cases)
}

// WaitOut replays a change log (API stream semantics: no jitter) and
// evaluates the waiting rule at every surge onset in [start, end).
func WaitOut(log []measure.SurgeChange, initial float64, start, end, waitSeconds int64) WaitOutResult {
	var res WaitOutResult
	var sumSave, sumOnset, sumAfter float64
	cur := initial
	for _, c := range log {
		if c.Time < start || c.Time >= end {
			cur = c.To
			continue
		}
		onset := cur <= 1 && c.To > 1
		cur = c.To
		if !onset {
			continue
		}
		at := c.Time + waitSeconds
		if at >= end {
			continue
		}
		after := valueAt(log, initial, at)
		res.Cases++
		sumOnset += c.To
		sumAfter += after
		sumSave += c.To - after
		if after < c.To {
			res.Improved++
		}
		if after <= 1 {
			res.Cleared++
		}
	}
	if res.Cases > 0 {
		res.MeanSaving = sumSave / float64(res.Cases)
		res.MeanOnset = sumOnset / float64(res.Cases)
		res.MeanAfter = sumAfter / float64(res.Cases)
	}
	return res
}

// valueAt reconstructs the stream's value at time t.
func valueAt(log []measure.SurgeChange, initial float64, t int64) float64 {
	v := initial
	for j := 0; j < len(log); j++ {
		if log[j].Time > t {
			break
		}
		v = log[j].To
	}
	return v
}
