package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample, and 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// latencies is one op's latency sample.
type latencies []time.Duration

// summary sorts the sample in place and returns its median, p99 and size.
func (l latencies) summary() (p50, p99 time.Duration, n int) {
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return percentile(l, 50), percentile(l, 99), len(l)
}

// p50 is the median, leaving the sample in its recorded order.
func (l latencies) p50() time.Duration {
	m, _, _ := append(latencies(nil), l...).summary()
	return m
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median of a float sample (0 when empty); sorts a copy.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is what
// the acceptance harness applies to ten runs. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
