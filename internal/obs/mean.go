package obs

import "math"

// Mean is a streaming mean estimator (Welford's update) for the averages a
// run reports at its end — per-peer occupancy, collection delay, per-record
// aggregates. The zero value is ready to use. Unlike the registry's
// instruments it is not safe for concurrent use.
type Mean struct {
	n    int64
	mean float64
}

// Add incorporates one observation.
func (s *Mean) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
}

// N returns the number of observations.
func (s *Mean) N() int64 { return s.n }

// Mean returns the sample mean (NaN when empty).
func (s *Mean) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}
