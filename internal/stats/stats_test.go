package stats

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func addAll(s *Sample, vs ...float64) {
	for _, v := range vs {
		s.Add(v)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSampleBasics(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3, 4, 5)
	if s.N() != 5 || s.Sum() != 15 {
		t.Fatalf("n=%d sum=%v", s.N(), s.Sum())
	}
	mean, err := s.Mean()
	if err != nil || !almost(mean, 3) {
		t.Fatalf("mean = %v, %v", mean, err)
	}
	v, err := s.Variance()
	if err != nil || !almost(v, 2.5) {
		t.Fatalf("variance = %v, %v", v, err)
	}
	sd, err := s.StdDev()
	if err != nil || !almost(sd, math.Sqrt(2.5)) {
		t.Fatalf("stddev = %v, %v", sd, err)
	}
	lo, _ := s.Min()
	hi, _ := s.Max()
	if lo != 1 || hi != 5 {
		t.Fatalf("min=%v max=%v", lo, hi)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	var s Sample
	if _, err := s.Mean(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Mean on empty = %v", err)
	}
	if _, err := s.Min(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Min on empty = %v", err)
	}
	if _, err := s.Percentile(50); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Percentile on empty = %v", err)
	}
	one := Sample{}
	one.Add(7)
	if _, err := one.Variance(); err == nil {
		t.Fatal("Variance with one observation must error")
	}
	if s := one.Describe(); !strings.Contains(s, "n=1") {
		t.Fatalf("Describe(n=1) = %q", s)
	}
	var empty Sample
	if empty.Describe() != "(no data)" {
		t.Fatal("Describe on empty")
	}
}

func TestPercentiles(t *testing.T) {
	var s Sample
	addAll(&s, 10, 20, 30, 40)
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, tt := range tests {
		got, err := s.Percentile(tt.p)
		if err != nil || !almost(got, tt.want) {
			t.Errorf("p%v = %v (%v), want %v", tt.p, got, err, tt.want)
		}
	}
	if _, err := s.Percentile(-1); err == nil {
		t.Fatal("negative percentile accepted")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Fatal("percentile > 100 accepted")
	}
}

func TestPercentileAfterAddResorts(t *testing.T) {
	var s Sample
	addAll(&s, 3, 1)
	if v, _ := s.Percentile(0); v != 1 {
		t.Fatalf("p0 = %v", v)
	}
	s.Add(0)
	if v, _ := s.Percentile(0); v != 0 {
		t.Fatalf("p0 after add = %v, want 0", v)
	}
}

// TestPropertyMeanWithinRange: a mean always lies within [min, max].
func TestPropertyMeanWithinRange(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, v := range raw {
			// Skip values whose sum could overflow; the experiments
			// only feed bounded tick counts and probabilities.
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		mean, err := s.Mean()
		if err != nil {
			return false
		}
		lo, _ := s.Min()
		hi, _ := s.Max()
		return mean >= lo-1e-9 && mean <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPercentileMonotone: percentiles are nondecreasing in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < int(n%50)+1; i++ {
			s.Add(rng.NormFloat64())
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v, err := s.Percentile(p)
			if err != nil || v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Sample
	for i := 0; i < 30; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 3000; i++ {
		large.Add(rng.NormFloat64())
	}
	ciS, err1 := small.CI95()
	ciL, err2 := large.CI95()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if ciL >= ciS {
		t.Fatalf("ci(n=3000)=%v not smaller than ci(n=30)=%v", ciL, ciS)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if _, err := r.Value(); !errors.Is(err, ErrEmpty) {
		t.Fatal("empty ratio must error")
	}
	for i := 0; i < 80; i++ {
		r.Observe(true)
	}
	for i := 0; i < 20; i++ {
		r.Observe(false)
	}
	v, err := r.Value()
	if err != nil || !almost(v, 0.8) {
		t.Fatalf("value = %v, %v", v, err)
	}
	lo, hi, err := r.Wilson95()
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0.8 || hi <= 0.8 {
		t.Fatalf("wilson interval [%v,%v] must contain 0.8", lo, hi)
	}
	if lo < 0 || hi > 1 {
		t.Fatalf("wilson interval [%v,%v] out of [0,1]", lo, hi)
	}
}

// TestPropertyWilsonContainsPointEstimate for non-degenerate counts.
func TestPropertyWilsonContainsPointEstimate(t *testing.T) {
	f := func(succ, fail uint8) bool {
		r := Ratio{Successes: int(succ), Trials: int(succ) + int(fail)}
		if r.Trials == 0 {
			return true
		}
		p, _ := r.Value()
		lo, hi, err := r.Wilson95()
		return err == nil && lo <= p+1e-9 && hi >= p-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	var s Sample
	addAll(&s, 1, 2, 3, 4, 100)
	d := s.Describe()
	for _, frag := range []string{"±", "min", "p50", "p99", "max", "n=5"} {
		if !strings.Contains(d, frag) {
			t.Fatalf("describe %q missing %q", d, frag)
		}
	}
}
