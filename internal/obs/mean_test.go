package obs

import (
	"math"
	"testing"
)

func TestMeanBasics(t *testing.T) {
	var s Mean
	if !math.IsNaN(s.Mean()) {
		t.Error("empty mean should be NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
}

func TestMeanSingleObservation(t *testing.T) {
	var s Mean
	s.Add(3)
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
}
