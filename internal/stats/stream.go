// Bounded-memory streaming statistics for ensemble-scale campaigns.
// Sample buffers every observation, which is exact but O(n) memory — fine
// for hundreds of trials, hopeless for the 10M-trial sweeps the ensemble
// engine runs. Welford and QuantileSketch hold constant state per stream
// and merge deterministically, so per-block partials from a parallel sweep
// combine into byte-identical aggregates at any worker count (merge order
// is the caller's responsibility for Welford; sketch merges are exact
// integer adds and commute).
package stats

import (
	"fmt"
	"math"
)

// Welford is a constant-memory running mean/variance accumulator using
// Welford's online algorithm, with min/max tracking. The zero value is an
// empty accumulator ready for use. It is a value type: copying snapshots
// the state, and Merge combines two accumulators with Chan et al.'s
// parallel formula.
type Welford struct {
	Count uint64
	// MeanV and M2 are Welford's running mean and sum of squared
	// deviations; exported so per-block partials can be compared and
	// serialized, but use the methods for queries.
	MeanV, M2  float64
	MinV, MaxV float64
}

// Add records one observation.
func (w *Welford) Add(v float64) {
	if w.Count == 0 {
		w.MinV, w.MaxV = v, v
	} else {
		if v < w.MinV {
			w.MinV = v
		}
		if v > w.MaxV {
			w.MaxV = v
		}
	}
	w.Count++
	d := v - w.MeanV
	w.MeanV += d / float64(w.Count)
	w.M2 += d * (v - w.MeanV)
}

// Merge absorbs o into w as if o's observations had been Added after w's.
// The result depends (in the last floating-point bits) on merge order, so
// parallel reducers must merge partials in a fixed order to stay
// deterministic.
func (w *Welford) Merge(o Welford) {
	if o.Count == 0 {
		return
	}
	if w.Count == 0 {
		*w = o
		return
	}
	if o.MinV < w.MinV {
		w.MinV = o.MinV
	}
	if o.MaxV > w.MaxV {
		w.MaxV = o.MaxV
	}
	n1, n2 := float64(w.Count), float64(o.Count)
	d := o.MeanV - w.MeanV
	n := n1 + n2
	w.MeanV += d * n2 / n
	w.M2 += o.M2 + d*d*n1*n2/n
	w.Count += o.Count
}

// N returns the number of observations.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (w *Welford) N() uint64 { return w.Count }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() (float64, error) {
	if w.Count < 2 {
		return 0, fmt.Errorf("%w: variance needs two observations", ErrEmpty)
	}
	return w.M2 / float64(w.Count-1), nil
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() (float64, error) {
	v, err := w.Variance()
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Max returns the largest observation.
func (w *Welford) Max() (float64, error) {
	if w.Count == 0 {
		return 0, ErrEmpty
	}
	return w.MaxV, nil
}

// MeanCI95 returns the mean together with its normal-approximation 95%
// confidence half-width, the pair every experiment table reports.
func (w *Welford) MeanCI95() (mean, half float64, err error) {
	sd, err := w.StdDev()
	if err != nil {
		return 0, 0, err
	}
	return w.MeanV, 1.96 * sd / math.Sqrt(float64(w.Count)), nil
}

// QuantileSketch estimates quantiles from a fixed-size bucket array over
// [Lo, Hi): constant memory regardless of stream length. Out-of-range
// observations clamp into the edge buckets (and are still counted), so
// tail quantiles stay conservative. When observations are integers and the
// bucket width is 1, quantiles are exact order statistics. Merging adds
// bucket counts — exact, order-independent integer arithmetic.
type QuantileSketch struct {
	Lo, Hi  float64
	Buckets []uint64
	Total   uint64
}

// NewQuantileSketch builds a sketch with n buckets over [lo, hi).
func NewQuantileSketch(lo, hi float64, n int) (*QuantileSketch, error) {
	if n < 1 || hi <= lo {
		return nil, fmt.Errorf("stats: bad sketch shape [%v,%v) x%d", lo, hi, n)
	}
	return &QuantileSketch{Lo: lo, Hi: hi, Buckets: make([]uint64, n)}, nil
}

// Add records one observation.
func (q *QuantileSketch) Add(v float64) {
	// Multiply before dividing: (v-Lo)/(Hi-Lo)*n rounds 411/823*823 down
	// to 410.999..., misplacing integer observations by one bucket.
	idx := int((v - q.Lo) * float64(len(q.Buckets)) / (q.Hi - q.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(q.Buckets) {
		idx = len(q.Buckets) - 1
	}
	q.Buckets[idx]++
	q.Total++
}

// Merge adds o's bucket counts into q. The shapes must match.
func (q *QuantileSketch) Merge(o *QuantileSketch) error {
	if o == nil || o.Total == 0 {
		return nil
	}
	if o.Lo != q.Lo || o.Hi != q.Hi || len(o.Buckets) != len(q.Buckets) {
		return fmt.Errorf("stats: merging mismatched sketches [%v,%v)x%d into [%v,%v)x%d",
			o.Lo, o.Hi, len(o.Buckets), q.Lo, q.Hi, len(q.Buckets))
	}
	for i, c := range o.Buckets {
		q.Buckets[i] += c
	}
	q.Total += o.Total
	return nil
}

// N returns the number of observations.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (q *QuantileSketch) N() uint64 { return q.Total }

// Width returns the bucket width — the resolution of every quantile
// estimate. An estimate can be off by strictly less than one width.
func (q *QuantileSketch) Width() float64 {
	return (q.Hi - q.Lo) / float64(len(q.Buckets))
}

// Quantile returns the value at quantile p in [0, 1]: the lower edge of
// the bucket holding the ceil(p·n)-th order statistic. With unit-width
// buckets over integer data this is the exact order statistic; with
// coarser buckets the true quantile lies in [edge, edge+Width()), so
// the point estimate is biased low by up to one bucket width — use
// QuantileBounds when the error bar matters, and Width to report the
// sketch's resolution alongside the estimate.
func (q *QuantileSketch) Quantile(p float64) (float64, error) {
	lo, _, err := q.QuantileBounds(p)
	return lo, err
}

// QuantileBounds returns the bucket interval [lo, hi) that contains the
// quantile-p order statistic: lo is Quantile's point estimate and
// hi - lo is one bucket width, the estimate's worst-case error.
func (q *QuantileSketch) QuantileBounds(p float64) (lo, hi float64, err error) {
	if q.Total == 0 {
		return 0, 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, 0, fmt.Errorf("stats: quantile %v out of [0,1]", p)
	}
	rank := uint64(math.Ceil(p * float64(q.Total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	width := q.Width()
	for i, c := range q.Buckets {
		seen += c
		if seen >= rank {
			lo = q.Lo + float64(i)*width
			return lo, lo + width, nil
		}
	}
	return q.Hi, q.Hi + width, nil
}
