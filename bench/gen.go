package main

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/sim"
)

// rng is a splitmix64 stream: every workload input is drawn from one,
// keyed by (seed, stream), so the same -seed gives the same inputs and the
// program under test only ever sees generated values.
type rng uint64

func newRNG(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// city is one served region as the load generator sees it.
type city struct {
	profile *sim.CityProfile
	proj    *geo.Projection
	offered int // products a ping must carry
}

func newCity(p *sim.CityProfile) city {
	offered := 0
	for _, share := range sim.NormalizedShares(p.FleetShare) {
		if share > 0 {
			offered++
		}
	}
	return city{profile: p, proj: geo.NewProjection(p.Origin), offered: offered}
}

// loc draws a location uniformly inside the city's measurement rectangle.
func (c *city) loc(r *rng) geo.LatLng {
	m := c.profile.MeasureRect
	return c.proj.ToLatLng(geo.Point{
		X: m.Min.X + r.float()*m.Width(),
		Y: m.Min.Y + r.float()*m.Height(),
	})
}

type endpoint uint8

const (
	epPing endpoint = iota
	epPrice
	epTime
	epLogin
)

var endpointNames = [...]string{"ping", "price", "time", "login"}

// request is one generated serve_gateway request.
type request struct {
	ep   endpoint
	city int // index into the generator's cities
	id   string
	loc  geo.LatLng
}

// requestGen draws one client's request stream: 78 % pingClient, 10 %
// estimates/price, 10 % estimates/time, 2 % login of a fresh account; two
// thirds of the traffic to the first city; the account from the client's
// own slice of the pre-registered accounts, so no account is ever used by
// two requests in flight.
type requestGen struct {
	r        *rng
	cities   []city
	accounts []string // this client's slice
	fresh    string   // prefix of the accounts this stream logs in
	logins   int
}

func (g *requestGen) next() request {
	var rq request
	switch u := g.r.float(); {
	case u < 0.78:
		rq.ep = epPing
	case u < 0.88:
		rq.ep = epPrice
	case u < 0.98:
		rq.ep = epTime
	default:
		rq.ep = epLogin
	}
	if g.r.float() >= 2.0/3 {
		rq.city = 1
	}
	rq.id = g.accounts[g.r.intn(len(g.accounts))]
	rq.loc = g.cities[rq.city].loc(g.r)
	if rq.ep == epLogin {
		rq.id = fmt.Sprintf("%s-%d", g.fresh, g.logins)
		g.logins++
	}
	return rq
}

// drawsDigest is the FNV-64a of the first n draws of a stream: the
// generator's determinism witness.
func drawsDigest(g *requestGen, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		rq := g.next()
		fmt.Fprintf(h, "%d|%s|%.7f|%.7f\n", rq.ep, rq.id, rq.loc.Lat, rq.loc.Lng)
	}
	return h.Sum64()
}

// accountNames returns the n pre-registered account ids.
func accountNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("acct-%04d", i)
	}
	return out
}

// worldDigest folds the modelled statistics of a world into one FNV-64a
// value. It is exact across runs with the seed fixed: a change that only
// makes the simulator faster must leave it identical.
func worldDigest(worlds ...*sim.World) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, w := range worlds {
		put(uint64(w.Now()))
		put(uint64(w.OnlineDrivers()))
		for _, v := range []int64{w.TotalPickups, w.TotalPricedOut, w.TotalUnmet, w.TotalSpawned, w.TotalOffline} {
			put(uint64(v))
		}
		for _, vt := range core.AllVehicleTypes() {
			idle, enroute, ontrip := w.CountByState(vt)
			put(uint64(idle))
			put(uint64(enroute))
			put(uint64(ontrip))
		}
		put(math.Float64bits(maxFactor(w)))
	}
	return h.Sum64()
}

// maxFactor is the largest congestion factor on the world's street
// network, 0 on a euclidean world.
func maxFactor(w *sim.World) float64 {
	if w.Road() == nil {
		return 0
	}
	m := 0.0
	for _, f := range w.Road().Cong.Factors() {
		m = max(m, f)
	}
	return m
}
