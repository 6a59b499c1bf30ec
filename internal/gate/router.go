package gate

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/geo"
)

// Routing errors.
var (
	// ErrOutOfRegion means no configured region contains the location:
	// the multi-city equivalent of api.ErrOutOfService, answered 404.
	ErrOutOfRegion = errors.New("gate: location outside every service region")
	// ErrRegionDown means the owning region has no eligible shard:
	// answered 503 + Retry-After, never a wrong-city answer.
	ErrRegionDown = errors.New("gate: region has no eligible shard")
)

// RegionSpec declares one city region the gateway routes for. The rect is
// in the region's own tangent-plane coordinates (meters around Origin),
// exactly as sim.CityProfile.Region is — so the gateway's in/out decision
// is bit-identical to the shard's own ErrOutOfService check and a request
// is never forwarded to a shard that would reject it as out of region.
type RegionSpec struct {
	Name   string
	Origin geo.LatLng
	Rect   geo.Rect
}

// region is a RegionSpec bound to its projection and shard set.
type region struct {
	spec   RegionSpec
	proj   *geo.Projection
	shards []*Shard
}

// contains reports whether the location falls inside the region.
func (rg *region) contains(loc geo.LatLng) bool {
	return rg.spec.Rect.Contains(rg.proj.ToPlane(loc))
}

// Router maps a GPS location to a shard: first to the owning region by
// rectangle containment, then to one of the region's shards by rendezvous
// (highest-random-weight) hashing on the location's quantized cell.
//
// Rendezvous hashing gives the two properties the reroute tests pin:
// deterministic placement (the score depends only on shard name and cell,
// so the same GPS routes to the same shard across gateway restarts — no
// state to persist) and minimal disruption (when a shard dies, only its
// own cells move, each independently to its next-ranked survivor; when it
// returns, exactly those cells move back).
type Router struct {
	regions []*region
	byName  map[string]*region
}

// cellDegrees quantizes GPS for the routing key: ~0.002° ≈ 200 m cells,
// fine enough that one city splits across replicas, coarse enough that a
// measurement client pinging from a fixed spot never flaps between
// shards (and so keeps one shard's view of its session).
const cellDegrees = 0.002

// NewRouter builds the routing table. Every shard must reference a
// declared region.
func NewRouter(regions []RegionSpec, shards []*Shard) (*Router, error) {
	rt := &Router{byName: make(map[string]*region)}
	for _, spec := range regions {
		if spec.Name == "" {
			return nil, errors.New("gate: region needs a name")
		}
		if _, dup := rt.byName[spec.Name]; dup {
			return nil, fmt.Errorf("gate: duplicate region %q", spec.Name)
		}
		rg := &region{spec: spec, proj: geo.NewProjection(spec.Origin)}
		rt.regions = append(rt.regions, rg)
		rt.byName[spec.Name] = rg
	}
	for _, s := range shards {
		rg, ok := rt.byName[s.Region]
		if !ok {
			return nil, fmt.Errorf("gate: shard %q references unknown region %q", s.Name, s.Region)
		}
		rg.shards = append(rg.shards, s)
	}
	return rt, nil
}

// Locate returns the region containing loc, or nil.
func (rt *Router) Locate(loc geo.LatLng) *region {
	for _, rg := range rt.regions {
		if rg.contains(loc) {
			return rg
		}
	}
	return nil
}

// cellKey quantizes a location to its routing cell.
func cellKey(loc geo.LatLng) (int64, int64) {
	return int64(math.Floor(loc.Lat / cellDegrees)),
		int64(math.Floor(loc.Lng / cellDegrees))
}

// score is the rendezvous weight of shard name for a cell: a pure
// function of (name, cell), so the ranking is identical in every gateway
// process that ever runs.
func score(name string, cx, cy int64) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	var buf [17]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(cx >> (8 * i))
		buf[8+i] = byte(cy >> (8 * i))
	}
	buf[16] = 0xA5 // domain separator from any future hash of the same fields
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

// rank orders a region's shards by descending rendezvous score for loc,
// ties broken by name so the order is total and stable.
func (rg *region) rank(loc geo.LatLng) []*Shard {
	cx, cy := cellKey(loc)
	ranked := make([]*Shard, len(rg.shards))
	copy(ranked, rg.shards)
	scores := make(map[*Shard]uint64, len(ranked))
	for _, s := range ranked {
		scores[s] = score(s.Name, cx, cy)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if si != sj {
			return si > sj
		}
		return ranked[i].Name < ranked[j].Name
	})
	return ranked
}

// Route is one routing decision.
type Route struct {
	// Shard is the chosen target. Its breaker Allow was consumed: the
	// caller must Report the forward's outcome.
	Shard *Shard
	// Primary is the rank-0 shard ignoring health — when Shard differs,
	// the request was rerouted around a failure.
	Primary *Shard
	// Region is the owning region's name.
	Region string
}

// Rerouted reports whether the request left its primary shard.
func (r Route) Rerouted() bool { return r.Shard != r.Primary }

// Pick chooses the shard for loc, skipping shards in exclude (callers
// pass the shard that just failed a forward so the retry goes elsewhere).
// The chosen shard's breaker Allow is consumed; the caller must Report.
// Only the owning region's shards are ever offered: a request is never
// answered by another city's world.
// Errors: ErrOutOfRegion when no region contains loc; ErrRegionDown when
// the owning region has no eligible shard (the error still carries the
// region name via RouteError).
func (rt *Router) Pick(loc geo.LatLng, exclude ...*Shard) (Route, error) {
	rg := rt.Locate(loc)
	if rg == nil {
		return Route{}, ErrOutOfRegion
	}
	ranked := rg.rank(loc)
	var primary *Shard
	if len(ranked) > 0 {
		primary = ranked[0]
	}
	if s := pickEligible(ranked, exclude); s != nil {
		return Route{Shard: s, Primary: primary, Region: rg.spec.Name}, nil
	}
	return Route{Region: rg.spec.Name}, &RouteError{Region: rg.spec.Name, Err: ErrRegionDown}
}

// pickEligible walks the ranking and returns the first shard that is up,
// not excluded, and whose breaker admits the request.
func pickEligible(ranked, exclude []*Shard) *Shard {
	for _, s := range ranked {
		if excluded(s, exclude) || !s.Eligible() {
			continue
		}
		if !s.breaker.Allow() {
			continue
		}
		return s
	}
	return nil
}

func excluded(s *Shard, exclude []*Shard) bool {
	for _, e := range exclude {
		if s == e {
			return true
		}
	}
	return false
}

// RouteError carries the region a routing failure applies to.
type RouteError struct {
	Region string
	Err    error
}

func (e *RouteError) Error() string { return fmt.Sprintf("%v (region %s)", e.Err, e.Region) }
func (e *RouteError) Unwrap() error { return e.Err }
