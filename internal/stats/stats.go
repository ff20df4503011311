// Package stats provides the summary statistics used by the Monte-Carlo
// heartbeat experiments: running samples with means, deviations,
// percentiles and normal-approximation confidence intervals, plus fixed-
// width histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by queries on samples with no observations.
var ErrEmpty = errors.New("stats: empty sample")

// Sample accumulates float64 observations.
type Sample struct {
	values []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.values = append(s.values, v)
	s.sorted = false
}

// N returns the number of observations.
//
//lint:allow unused-export oracle: the recorded plain-baseline pins and the worker-determinism test compare sample sizes (scenario_test.go)
func (s *Sample) N() int { return len(s.values) }

// Values returns a copy of the observations in insertion order — unless an
// order-statistic query (Min/Max/Percentile) has already run, which sorts
// the backing store in place. Callers needing insertion order must read
// Values before such queries.
//
//lint:allow unused-export oracle: ensemble's differential against scenario compares per-trial values in insertion order (differential_test.go)
func (s *Sample) Values() []float64 {
	return append([]float64(nil), s.values...)
}

// Sum returns the total of all observations.
func (s *Sample) Sum() float64 {
	total := 0.0
	for _, v := range s.values {
		total += v
	}
	return total
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	return s.Sum() / float64(len(s.values)), nil
}

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() (float64, error) {
	if len(s.values) < 2 {
		return 0, fmt.Errorf("%w: variance needs two observations", ErrEmpty)
	}
	mean, _ := s.Mean()
	ss := 0.0
	for _, v := range s.values {
		d := v - mean
		ss += d * d
	}
	return ss / float64(len(s.values)-1), nil
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() (float64, error) {
	v, err := s.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest observation.
func (s *Sample) Min() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[0], nil
}

// Max returns the largest observation.
func (s *Sample) Max() (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	s.ensureSorted()
	return s.values[len(s.values)-1], nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) (float64, error) {
	if len(s.values) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	s.ensureSorted()
	if len(s.values) == 1 {
		return s.values[0], nil
	}
	rank := p / 100 * float64(len(s.values)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.values[lo], nil
	}
	frac := rank - float64(lo)
	return s.values[lo]*(1-frac) + s.values[hi]*frac, nil
}

// CI95 returns the normal-approximation 95% confidence half-width of the
// mean.
func (s *Sample) CI95() (float64, error) {
	sd, err := s.StdDev()
	if err != nil {
		return 0, err
	}
	return 1.96 * sd / math.Sqrt(float64(len(s.values))), nil
}

// ensureSorted sorts the backing slice once per batch of queries.
func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
}

// Describe renders "mean ± ci [min, p50, p99, max] (n=...)" for reports;
// degenerate samples render what they can.
func (s *Sample) Describe() string {
	if len(s.values) == 0 {
		return "(no data)"
	}
	mean, _ := s.Mean()
	minV, _ := s.Min()
	maxV, _ := s.Max()
	p50, _ := s.Percentile(50)
	p99, _ := s.Percentile(99)
	ci, err := s.CI95()
	if err != nil {
		return fmt.Sprintf("%.3g (n=1)", mean)
	}
	return fmt.Sprintf("%.4g ± %.2g [min %.4g, p50 %.4g, p99 %.4g, max %.4g] (n=%d)",
		mean, ci, minV, p50, p99, maxV, len(s.values))
}

// Ratio is a Bernoulli counter: successes over trials, with a Wilson
// score interval for small samples.
type Ratio struct {
	Successes, Trials int
}

// Observe records one trial.
func (r *Ratio) Observe(success bool) {
	r.Trials++
	if success {
		r.Successes++
	}
}

// Value returns the observed proportion.
func (r *Ratio) Value() (float64, error) {
	if r.Trials == 0 {
		return 0, ErrEmpty
	}
	return float64(r.Successes) / float64(r.Trials), nil
}

// Wilson95 returns the 95% Wilson score interval for the proportion.
func (r *Ratio) Wilson95() (lo, hi float64, err error) {
	if r.Trials == 0 {
		return 0, 0, ErrEmpty
	}
	const z = 1.96
	n := float64(r.Trials)
	p := float64(r.Successes) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	return math.Max(0, center-half), math.Min(1, center+half), nil
}
