package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestPercentileMonotonic checks the order property of the quantile
// estimator on random samples: p -> Percentile(p) is nondecreasing and
// pinned to Min at 0 and Max at 100.
func TestPercentileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var s Sample
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Mix of scales, including duplicates and negatives.
			s.Add(float64(rng.Intn(10)) * (rng.Float64()*2 - 1) * 100)
		}
		prev, err := s.Percentile(0)
		if err != nil {
			t.Fatal(err)
		}
		if lo, _ := s.Min(); prev != lo {
			t.Fatalf("trial %d: Percentile(0) = %v, Min = %v", trial, prev, lo)
		}
		for p := 1.0; p <= 100; p++ {
			q, err := s.Percentile(p)
			if err != nil {
				t.Fatal(err)
			}
			if q < prev {
				t.Fatalf("trial %d: Percentile(%v) = %v < Percentile(%v) = %v",
					trial, p, q, p-1, prev)
			}
			prev = q
		}
		if hi, _ := s.Max(); prev != hi {
			t.Fatalf("trial %d: Percentile(100) = %v, Max = %v", trial, prev, hi)
		}
	}
}

// TestMergeMatchesBulk checks that splitting a stream across workers and
// merging afterwards is indistinguishable from one bulk sample: same N,
// sum, and quantiles.
func TestMergeMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		var bulk Sample
		parts := make([]Sample, 1+rng.Intn(4))
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 10
			bulk.Add(v)
			parts[rng.Intn(len(parts))].Add(v)
		}
		var merged Sample
		for i := range parts {
			merged.Merge(&parts[i])
		}
		if merged.N() != bulk.N() {
			t.Fatalf("trial %d: merged N = %d, bulk N = %d", trial, merged.N(), bulk.N())
		}
		// Summation order differs, so the sums agree only up to float
		// associativity; the quantiles below are exact (same sorted
		// multiset).
		if math.Abs(merged.Sum()-bulk.Sum()) > 1e-9*(1+math.Abs(bulk.Sum())) {
			t.Fatalf("trial %d: merged sum = %v, bulk sum = %v", trial, merged.Sum(), bulk.Sum())
		}
		for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
			qm, err1 := merged.Percentile(p)
			qb, err2 := bulk.Percentile(p)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if qm != qb {
				t.Fatalf("trial %d: p%v merged = %v, bulk = %v", trial, p, qm, qb)
			}
		}
	}
}

func TestMergeDegenerate(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Merge(nil)
	s.Merge(&Sample{})
	if s.N() != 1 {
		t.Fatalf("degenerate merges changed N: %d", s.N())
	}
	// Merging into an empty sample copies, and the source is untouched.
	var dst Sample
	dst.Merge(&s)
	dst.Add(2)
	if s.N() != 1 || dst.N() != 2 {
		t.Fatalf("N source=%d dst=%d", s.N(), dst.N())
	}
}

// Merge absorbs every observation of other into s, as if each had been
// Added individually; other is unchanged.
func (s *Sample) Merge(other *Sample) {
	if other == nil || len(other.values) == 0 {
		return
	}
	s.values = append(s.values, other.values...)
	s.sorted = false
}
