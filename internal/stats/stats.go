// Package stats provides the small numeric helpers the benchmark harness
// uses: means, standard deviations, and time series built from sampled
// counters.
package stats

import "math"

// Mean returns the arithmetic mean of vals, or 0 for an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// StdDev returns the population standard deviation of vals.
func StdDev(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := Mean(vals)
	var ss float64
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)))
}

// Series is a sampled time series.
type Series struct {
	T []float64 // seconds
	V []float64
}

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// Rates converts a cumulative-counter series into per-interval rates
// (events/second between consecutive samples). The result has Len()-1
// points stamped at the end of each interval.
func (s *Series) Rates() *Series {
	out := &Series{}
	for i := 1; i < s.Len(); i++ {
		dt := s.T[i] - s.T[i-1]
		if dt <= 0 {
			continue
		}
		out.Add(s.T[i], (s.V[i]-s.V[i-1])/dt)
	}
	return out
}

// Slowdown converts a duration into a slowdown factor relative to base,
// the paper's usual y-axis.
func Slowdown(elapsed, base float64) float64 {
	if base == 0 {
		panic("stats: slowdown with zero base")
	}
	return elapsed / base
}
