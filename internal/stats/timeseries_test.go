package stats

import (
	"math"
	"testing"
)

func TestSeriesSetAtIndex(t *testing.T) {
	s := NewSeries(1000, 300, 10)
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !math.IsNaN(s.At(1000)) {
		t.Error("fresh series should be NaN")
	}
	s.Set(1000, 5)
	s.Set(1299, 7) // same bucket as 1000
	if got := s.At(1100); got != 7 {
		t.Errorf("At(1100) = %v, want 7 (overwritten)", got)
	}
	s.Set(1300, 9)
	if got := s.At(1300); got != 9 {
		t.Errorf("At(1300) = %v, want 9", got)
	}
	if got := s.Mean(); got != 8 {
		t.Errorf("Mean = %v, want 8 (the two written buckets)", got)
	}
	if got := NewSeries(0, 300, 4).Mean(); got != 0 {
		t.Errorf("Mean of an all-missing series = %v, want 0", got)
	}
	// Out of range: ignored / NaN.
	s.Set(999, 1)
	s.Set(1000+300*10, 1)
	if !math.IsNaN(s.At(999)) || !math.IsNaN(s.At(1000+300*10)) {
		t.Error("out-of-range access should be NaN")
	}
}

func TestAccumulatorMeans(t *testing.T) {
	a := NewAccumulator(0, 300, 3)
	a.Add(0, 10)
	a.Add(100, 20)
	a.Add(299, 30)
	a.Add(300, 5)
	a.Add(1000, 99) // out of range: dropped
	s := a.Means()
	if got := s.At(0); got != 20 {
		t.Errorf("bucket 0 mean = %v, want 20", got)
	}
	if got := s.At(300); got != 5 {
		t.Errorf("bucket 1 mean = %v, want 5", got)
	}
	if !math.IsNaN(s.At(600)) {
		t.Error("empty bucket should be NaN")
	}
}

func TestAccumulatorAddCountSums(t *testing.T) {
	a := NewAccumulator(0, 300, 2)
	a.AddCount(10, 1)
	a.AddCount(20, 1)
	a.AddCount(250, 3)
	s := a.Sums()
	if got := s.At(0); got != 5 {
		t.Errorf("bucket 0 sum = %v, want 5", got)
	}
	if !math.IsNaN(s.At(300)) {
		t.Error("untouched bucket should be NaN in Sums")
	}
	// AddCount then Means should not divide by event count.
	m := a.Means()
	if got := m.At(0); got != 5 {
		t.Errorf("bucket 0 mean after AddCount = %v, want 5", got)
	}
}
