package surge

import "hash/fnv"

// View is an immutable snapshot of the engine's externally visible
// pricing state: the current and previous interval multipliers and the
// interval's switch schedule. The engine publishes a fresh View at every
// 5-minute update; the api layer pairs it with a sim.Snapshot so the
// query path can resolve per-client multipliers, propagation delay, and
// jitter without locking the engine.
//
// All schedule math (API switch moment, per-client switch moments, jitter
// windows) is deterministic in (seed, client, interval), so a View can
// answer any client's question for any time inside its interval exactly
// as the live engine would.
type View struct {
	jitter        bool
	seed          int64
	intervalStart int64
	apiSwitchAt   int64
	cur, prev     []float64
}

// View returns the engine's current immutable read state. Call it after
// Step, under whatever serializes Step against other engine writes; the
// returned View itself is safe for unlimited concurrent use.
func (e *Engine) View() *View { return e.view }

// rebuildView publishes a fresh immutable View of cur/prev and the switch
// schedule; called whenever an update completes (and once at New).
func (e *Engine) rebuildView() {
	e.view = &View{
		jitter:        e.cfg.Jitter,
		seed:          e.cfg.Seed,
		intervalStart: e.intervalStart,
		apiSwitchAt:   e.apiSwitchAt,
		cur:           append([]float64(nil), e.cur...),
		prev:          append([]float64(nil), e.prev...),
	}
}

// APIMultiplier returns the multiplier the estimates/price API serves for
// an area at time now. The API stream has no jitter.
func (v *View) APIMultiplier(area int, now int64) float64 {
	if area < 0 || area >= len(v.cur) {
		return 1
	}
	if now < v.apiSwitchAt {
		return v.prev[area]
	}
	return v.cur[area]
}

// ClientMultiplier returns the multiplier the pingClient stream serves to
// a specific client at time now; see Engine.ClientMultiplier for the
// February/April semantics.
func (v *View) ClientMultiplier(clientID string, area int, now int64) float64 {
	if area < 0 || area >= len(v.cur) {
		return 1
	}
	if !v.jitter {
		return v.APIMultiplier(area, now)
	}
	if start, dur := jitterWindowFor(v.seed, clientID, v.intervalStart); start >= 0 {
		t := now - v.intervalStart
		if t >= start && t < start+dur {
			return v.prev[area]
		}
	}
	if now < clientSwitchAt(v.seed, clientID, v.intervalStart) {
		return v.prev[area]
	}
	return v.cur[area]
}

// InJitter reports whether clientID is inside an April-bug jitter window
// at time now (always false when jitter is off).
func (v *View) InJitter(clientID string, now int64) bool {
	if !v.jitter {
		return false
	}
	start, dur := jitterWindowFor(v.seed, clientID, v.intervalStart)
	if start < 0 {
		return false
	}
	t := now - v.intervalStart
	return t >= start && t < start+dur
}

// CurrentMultiplier returns the interval's ground-truth multiplier.
func (v *View) CurrentMultiplier(area int) float64 {
	if area < 0 || area >= len(v.cur) {
		return 1
	}
	return v.cur[area]
}

// clientSwitchAt derives the client's personal switch moment for the
// interval: 10-130 seconds in, deterministically from (client, interval,
// seed).
func clientSwitchAt(seed int64, clientID string, boundary int64) int64 {
	u := hash01(seed, clientID, boundary, 0xc11e)
	return boundary + 10 + int64(u*120)
}

// jitterProb is the per-client, per-interval probability of one jitter
// event: high enough that jitter fragments a large share of client-stream
// surges (Fig 13's 40% under a minute) while onsets rarely coincide across
// the 43 clients (Fig 17's ~90% single-client events).
const jitterProb = 0.25

// jitterWindowFor deterministically derives the jitter schedule for a
// client in the interval starting at boundary; see Engine.jitterWindow.
// It returns (-1, 0) when the client has no jitter event this interval.
func jitterWindowFor(seed int64, clientID string, boundary int64) (start, dur int64) {
	v := hashBits(seed, clientID, boundary, 0x71772)
	u1 := float64(v&0xFFFF) / 65536     // occurrence
	u2 := float64(v>>16&0xFFFF) / 65536 // start offset
	u3 := float64(v>>32&0xFFFF) / 65536 // duration
	if u1 >= jitterProb {
		return -1, 0
	}
	if u3 < 0.9 {
		dur = 20 + int64(u3/0.9*10) // 20-30 s
	} else {
		dur = 30 + int64((u3-0.9)/0.1*30) // 30-60 s
	}
	maxStart := int64(UpdatePeriod) - dur
	start = int64(u2 * float64(maxStart))
	return start, dur
}

// hashBits mixes (client, interval, seed, salt) into 64 deterministic
// pseudo-random bits.
func hashBits(seed int64, clientID string, boundary, salt int64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(clientID))
	var buf [24]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(boundary >> (8 * i))
		buf[8+i] = byte(seed >> (8 * i))
		buf[16+i] = byte(salt >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64()
}

// hash01 returns a deterministic uniform value in [0, 1).
func hash01(seed int64, clientID string, boundary, salt int64) float64 {
	return float64(hashBits(seed, clientID, boundary, salt)&0xFFFFFF) / float64(1<<24)
}
