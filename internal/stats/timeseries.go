package stats

import "math"

// Series is a regularly spaced time series: Values[i] covers the interval
// [Start + i·Step, Start + (i+1)·Step) in simulation seconds. The paper's
// analysis works in 5-minute buckets; Step is therefore usually 300.
type Series struct {
	Start  int64 // simulation time of the first bucket, seconds
	Step   int64 // bucket width, seconds
	Values []float64
}

// NewSeries allocates a series of n buckets initialized to NaN (missing).
func NewSeries(start, step int64, n int) *Series {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return &Series{Start: start, Step: step, Values: v}
}

// Index returns the bucket index for time t, which may be out of range.
// Times before Start map to negative indices (floor division).
func (s *Series) Index(t int64) int {
	d := t - s.Start
	if d < 0 {
		return int((d - s.Step + 1) / s.Step)
	}
	return int(d / s.Step)
}

// At returns the value covering time t, or NaN if out of range.
func (s *Series) At(t int64) float64 {
	i := s.Index(t)
	if i < 0 || i >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[i]
}

// Set assigns the bucket covering time t; out-of-range times are ignored.
func (s *Series) Set(t int64, v float64) {
	i := s.Index(t)
	if i >= 0 && i < len(s.Values) {
		s.Values[i] = v
	}
}

// Len returns the number of buckets.
func (s *Series) Len() int { return len(s.Values) }

// Mean averages the buckets that hold a value, skipping the missing (NaN)
// ones; it is 0 when every bucket is missing.
func (s *Series) Mean() float64 {
	var sum float64
	n := 0
	for _, v := range s.Values {
		if !math.IsNaN(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Accumulator builds bucket means incrementally: feed raw samples with Add,
// then call Means to collapse each bucket to its average. This is exactly
// how the paper turns 5-second ping observations into 5-minute features.
type Accumulator struct {
	Start int64
	Step  int64
	sum   []float64
	n     []int
}

// NewAccumulator allocates an accumulator with nBuckets buckets.
func NewAccumulator(start, step int64, nBuckets int) *Accumulator {
	return &Accumulator{
		Start: start,
		Step:  step,
		sum:   make([]float64, nBuckets),
		n:     make([]int, nBuckets),
	}
}

// Grow extends the accumulator to at least nBuckets buckets.
func (a *Accumulator) Grow(nBuckets int) {
	if n := nBuckets - len(a.sum); n > 0 {
		a.sum = append(a.sum, make([]float64, n)...)
		a.n = append(a.n, make([]int, n)...)
	}
}

func (a *Accumulator) index(t int64) int {
	d := t - a.Start
	if d < 0 {
		return -1
	}
	return int(d / a.Step)
}

// Add records one raw sample at time t. Samples outside the covered range
// are dropped.
func (a *Accumulator) Add(t int64, v float64) {
	i := a.index(t)
	if i < 0 || i >= len(a.sum) {
		return
	}
	a.sum[i] += v
	a.n[i]++
}

// AddCount increments the bucket at time t by v without affecting the
// denominator used by Means; used for event counts per bucket (deaths).
func (a *Accumulator) AddCount(t int64, v float64) {
	i := a.index(t)
	if i < 0 || i >= len(a.sum) {
		return
	}
	a.sum[i] += v
	if a.n[i] == 0 {
		a.n[i] = 1
	}
}

// Means returns the per-bucket averages as a Series; empty buckets are NaN.
func (a *Accumulator) Means() *Series {
	s := NewSeries(a.Start, a.Step, len(a.sum))
	for i := range a.sum {
		if a.n[i] > 0 {
			s.Values[i] = a.sum[i] / float64(a.n[i])
		}
	}
	return s
}

// Sums returns the per-bucket sums as a Series; untouched buckets are NaN.
func (a *Accumulator) Sums() *Series {
	s := NewSeries(a.Start, a.Step, len(a.sum))
	for i := range a.sum {
		if a.n[i] > 0 {
			s.Values[i] = a.sum[i]
		}
	}
	return s
}
