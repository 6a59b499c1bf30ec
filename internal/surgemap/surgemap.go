// Package surgemap reconstructs Uber's surge-area partition from the
// outside, the way §5.3 does: probe a lattice of locations through the
// price API (which has no jitter and updates on the 5-minute clock),
// record each location's multiplier series, and merge adjacent lattice
// points whose series stay in lock-step. The connected clusters are the
// surge areas (Figs 18, 19).
package surgemap

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
)

// Map is an inferred surge-area partition.
type Map struct {
	// Points is the probe lattice (plane coordinates).
	Points []geo.Point
	// Series is each point's multiplier per sampled interval.
	Series [][]float64
	// Cluster assigns each point an inferred area label (dense, 0-based).
	Cluster []int
	// NumClusters is the number of distinct labels.
	NumClusters int
	// Cols/Rows describe the lattice for adjacency.
	Cols, Rows int
}

// Prober drives the inference. One account is shared by up to 80 lattice
// points: 80 points × 12 samples/hour = 960 requests/hour, inside the
// 1,000/hour limit.
type Prober struct {
	Svc     core.Service
	Proj    *geo.Projection
	Spacing float64
	Rect    geo.Rect

	points   []geo.Point
	accounts []string
	series   [][]float64
	cols     int
	rows     int
}

const pointsPerAccount = 80

// Registrar matches api.Service's and api.Remote's account surface.
// Registration against a remote backend can fail, so Register returns an
// error.
type Registrar interface {
	Register(clientID string) error
}

// NewProber lays a lattice with the given spacing over rect and registers
// the accounts it needs. It fails only when an account registration fails
// (possible against a remote backend; never in-process).
func NewProber(svc core.Service, reg Registrar, proj *geo.Projection, rect geo.Rect, spacing float64) (*Prober, error) {
	p := &Prober{Svc: svc, Proj: proj, Spacing: spacing, Rect: rect}
	p.cols = int(rect.Width()/spacing) + 1
	p.rows = int(rect.Height()/spacing) + 1
	// The explicit conversions round each product, so no architecture
	// fuses it into the add: lattice points are the same bits everywhere.
	for r := 0; r < p.rows; r++ {
		for c := 0; c < p.cols; c++ {
			p.points = append(p.points, geo.Point{
				X: rect.Min.X + float64(float64(c)*spacing),
				Y: rect.Min.Y + float64(float64(r)*spacing),
			})
		}
	}
	p.series = make([][]float64, len(p.points))
	nAcc := (len(p.points)-1)/pointsPerAccount + 1
	for i := 0; i < nAcc; i++ {
		id := fmt.Sprintf("mapper-%02d", i)
		p.accounts = append(p.accounts, id)
		if err := reg.Register(id); err != nil {
			return nil, fmt.Errorf("surgemap: register %s: %w", id, err)
		}
	}
	return p, nil
}

// NumPoints returns the lattice size.
func (p *Prober) NumPoints() int { return len(p.points) }

// SampleOnce queries every lattice point's current multiplier and appends
// it to the series. Call once per 5-minute interval, mid-interval (after
// the API switch moment). A failed query (rate limiting, transport)
// repeats the point's previous value so the lattice stays rectangular —
// a ragged lattice would silently fragment the clustering; the first
// error is still reported.
func (p *Prober) SampleOnce() error {
	var firstErr error
	for i, pt := range p.points {
		acct := p.accounts[i/pointsPerAccount]
		prices, err := p.Svc.EstimatePrice(acct, p.Proj.ToLatLng(pt))
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("surgemap: point %d: %w", i, err)
			}
			last := 1.0
			if n := len(p.series[i]); n > 0 {
				last = p.series[i][n-1]
			}
			p.series[i] = append(p.series[i], last)
			continue
		}
		m := 1.0
		for _, pe := range prices {
			if pe.TypeName == core.UberX.String() {
				m = pe.Surge
				break
			}
		}
		p.series[i] = append(p.series[i], m)
	}
	return firstErr
}

// Infer clusters the lattice: adjacent points (4-neighborhood) whose
// series are identical in every sampled interval share an area.
func (p *Prober) Infer() *Map {
	n := len(p.points)
	uf := newUnionFind(n)
	for r := 0; r < p.rows; r++ {
		for c := 0; c < p.cols; c++ {
			i := r*p.cols + c
			if c+1 < p.cols && sameSeries(p.series[i], p.series[i+1]) {
				uf.union(i, i+1)
			}
			if r+1 < p.rows && sameSeries(p.series[i], p.series[i+p.cols]) {
				uf.union(i, i+p.cols)
			}
		}
	}
	labels := make([]int, n)
	next := 0
	seen := map[int]int{}
	for i := 0; i < n; i++ {
		root := uf.find(i)
		lbl, ok := seen[root]
		if !ok {
			lbl = next
			next++
			seen[root] = lbl
		}
		labels[i] = lbl
	}
	return &Map{
		Points:      p.points,
		Series:      p.series,
		Cluster:     labels,
		NumClusters: next,
		Cols:        p.cols,
		Rows:        p.rows,
	}
}

func sameSeries(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ASCII renders the inferred partition as a lattice of cluster labels
// (digits, then letters), north at the top — the textual equivalent of
// Figs 18 and 19.
func (m *Map) ASCII() string {
	if m.Cols == 0 || m.Rows == 0 {
		return ""
	}
	label := func(c int) byte {
		const alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
		if c < len(alphabet) {
			return alphabet[c]
		}
		return '?'
	}
	var sb strings.Builder
	for r := m.Rows - 1; r >= 0; r-- {
		for c := 0; c < m.Cols; c++ {
			sb.WriteByte(label(m.Cluster[r*m.Cols+c]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Accuracy scores the inferred partition against ground truth: the
// fraction of lattice points whose cluster's majority true-area label
// matches their own true area.
func (m *Map) Accuracy(truth func(geo.Point) int) float64 {
	if len(m.Points) == 0 {
		return 0
	}
	trueOf := make([]int, len(m.Points))
	for i, pt := range m.Points {
		trueOf[i] = truth(pt)
	}
	majority := m.majority(trueOf)
	ok := 0
	for i := range m.Points {
		if majority[m.Cluster[i]] == trueOf[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(m.Points))
}

// majority returns each cluster's most frequent label in trueOf (one per
// point), breaking a tie by the lowest label so the answer never depends
// on map order; an empty cluster gets -1.
func (m *Map) majority(trueOf []int) []int {
	votes := make([]map[int]int, m.NumClusters)
	for i := range votes {
		votes[i] = make(map[int]int)
	}
	for i, lbl := range trueOf {
		votes[m.Cluster[i]][lbl]++
	}
	majority := make([]int, m.NumClusters)
	for c, v := range votes {
		best, bestN := -1, -1
		for lbl, n := range v { //det:unordered a tie goes to the lowest label, so the winner is the same in any order
			if n > bestN || n == bestN && lbl < best {
				best, bestN = lbl, n
			}
		}
		majority[c] = best
	}
	return majority
}

// unionFind is a standard disjoint-set with path compression.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
