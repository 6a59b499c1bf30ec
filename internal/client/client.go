// Package client implements the paper's measurement apparatus: emulated
// copies of the Uber Client app that log in, send pingClient requests
// every five seconds from controlled GPS coordinates, and stream the
// responses into measurement sinks (§3.3). It also implements the grid
// deployment of 43 clients (Fig 3) and the calibration experiments of
// §3.4 (determinism check and the four-walker visibility-radius
// experiment).
package client

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geo"
)

// PingPeriod is how often the Client app pings, in seconds.
const PingPeriod = 5

// NumClients is the paper's measurement fleet size (43 Uber accounts).
const NumClients = 43

// Client is one emulated app instance pinned to a location.
type Client struct {
	ID  string
	Pos geo.Point  // plane coordinates (for analysis)
	Loc geo.LatLng // wire coordinates (what the app reports)
}

// Sink consumes ping responses as they arrive. Observe is called once per
// client per round; EndRound is called after every client in a round has
// reported, with the round's timestamp.
//
// Observe borrows resp: the response, its Types, each product's Cars and
// each car's Path are valid for the call only, because the caller fills the
// same response again for the next observation. A sink that keeps any of
// them copies them; the strings inside may be kept as they are.
type Sink interface {
	Observe(clientIdx int, pos geo.Point, resp *core.PingResponse)
	EndRound(now int64)
}

// GapSink is an optional extension of Sink: sinks that implement it are
// told about every ping that failed, so missing observations are recorded
// explicitly instead of silently skewing aggregates (the paper lost ~2.5%
// of its pings and had to account for them the same way). lastSeen is the
// most recent round timestamp the campaign observed (0 before the first
// successful ping).
type GapSink interface {
	ObserveGap(clientIdx int, pos geo.Point, lastSeen int64, err error)
}

// GridLayout places n clients on a square grid with the given spacing,
// centered on rect and covering it row-major from the south-west. This is
// the §3.4 deployment: spacing is derived from the calibrated visibility
// radius so that neighboring clients' views tile the region.
func GridLayout(rect geo.Rect, spacing float64, n int) []geo.Point {
	if n <= 0 || spacing <= 0 {
		return nil
	}
	cols := int(rect.Width()/spacing) + 1
	rows := int(rect.Height()/spacing) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	// Center the grid inside the rect.
	x0 := rect.Min.X + (rect.Width()-float64(cols-1)*spacing)/2
	y0 := rect.Min.Y + (rect.Height()-float64(rows-1)*spacing)/2
	pts := make([]geo.Point, 0, n)
	for r := 0; r < rows && len(pts) < n; r++ {
		for c := 0; c < cols && len(pts) < n; c++ {
			pts = append(pts, geo.Point{X: x0 + float64(c)*spacing, Y: y0 + float64(r)*spacing})
		}
	}
	return pts
}

// Registrar is the account-creation surface of a backend; *api.Service and
// *api.Remote both provide it. Registration against a remote backend can
// fail (transport errors, shed load), so Register returns an error; the
// in-process implementations always return nil.
type Registrar interface {
	Register(clientID string) error
}

// Campaign drives a fleet of clients against a service, delivering every
// response to every sink.
type Campaign struct {
	Service core.Service
	Clients []Client
	Sinks   []Sink

	// Rounds counts completed ping rounds.
	Rounds int64
	// Errors counts failed pings (out-of-service locations, transient
	// transport failures against a remote backend). Every error is also a
	// gap: the observation the failed ping would have produced is missing
	// from the record, and GapSinks are told about it.
	Errors int64

	// lastNow is the most recent response timestamp, handed to GapSinks
	// so gaps carry an approximate time.
	lastNow int64
	// resp is the one response every ping of every round fills and lends
	// to the sinks.
	resp core.PingResponse
}

// NewCampaign builds a campaign with clients at the given plane positions.
// Client IDs are deterministic ("probe-00".."probe-42"). The positions are
// converted to wire coordinates with proj.
func NewCampaign(svc core.Service, proj *geo.Projection, positions []geo.Point) *Campaign {
	c := &Campaign{Service: svc}
	for i, p := range positions {
		c.Clients = append(c.Clients, Client{
			ID:  fmt.Sprintf("probe-%02d", i),
			Pos: p,
			Loc: proj.ToLatLng(p),
		})
	}
	return c
}

// RegisterAll creates the campaign's accounts on the backend. It attempts
// every client even after a failure and returns the first error, so a
// transient failure mid-fleet doesn't leave the tail unregistered.
func (c *Campaign) RegisterAll(r Registrar) error {
	var firstErr error
	for _, cl := range c.Clients {
		if err := r.Register(cl.ID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// AddSink attaches a measurement sink.
func (c *Campaign) AddSink(s Sink) { c.Sinks = append(c.Sinks, s) }

// Round performs one ping round: every client pings once into the
// campaign's one response, which is lent to each sink in turn. Failed pings
// are reported to GapSinks so the round's record shows an explicit hole
// where the observation should have been.
func (c *Campaign) Round() {
	now := c.lastNow
	resp := &c.resp
	for i := range c.Clients {
		cl := &c.Clients[i]
		if err := c.Service.PingInto(cl.ID, cl.Loc, resp); err != nil {
			c.Errors++
			for _, s := range c.Sinks {
				if gs, ok := s.(GapSink); ok {
					gs.ObserveGap(i, cl.Pos, c.lastNow, err)
				}
			}
			continue
		}
		now = resp.Time
		c.lastNow = now
		for _, s := range c.Sinks {
			s.Observe(i, cl.Pos, resp)
		}
	}
	for _, s := range c.Sinks {
		s.EndRound(now)
	}
	c.Rounds++
}

// Stepper is a backend whose simulation clock the campaign can advance
// (the in-process api.Service). Remote backends advance on their own.
type Stepper interface {
	Step()
	Now() int64
}

// RunSim advances an in-process backend to time end, pinging after every
// tick (the backend tick equals the 5-second ping period).
func (c *Campaign) RunSim(b Stepper, end int64) {
	for b.Now() < end {
		b.Step()
		c.Round()
	}
}
