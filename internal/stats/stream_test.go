package stats

import (
	"math"
	"math/rand"
	"testing"
)

// property: on the same data, Welford must agree with the exact two-pass
// Sample within floating-point noise, for a spread of sizes and scales.
func TestWelfordMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(2000)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		offset := float64(rng.Intn(1000)) * scale
		var s Sample
		var w Welford
		for i := 0; i < n; i++ {
			v := offset + rng.NormFloat64()*scale
			s.Add(v)
			w.Add(v)
		}
		if got, want := int(w.N()), s.N(); got != want {
			t.Fatalf("trial %d: n %d != %d", trial, got, want)
		}
		sm, _ := s.Mean()
		wm := w.MeanV
		if !closeRel(sm, wm, 1e-9) {
			t.Fatalf("trial %d: mean %g (welford) vs %g (sample)", trial, wm, sm)
		}
		sv, _ := s.Variance()
		wv, _ := w.Variance()
		if !closeRel(sv, wv, 1e-6) {
			t.Fatalf("trial %d: variance %g (welford) vs %g (sample)", trial, wv, sv)
		}
		sci, _ := s.CI95()
		_, wci, err := w.MeanCI95()
		if err != nil || !closeRel(sci, wci, 1e-6) {
			t.Fatalf("trial %d: ci95 %g (welford, err %v) vs %g (sample)", trial, wci, err, sci)
		}
		smin, _ := s.Min()
		smax, _ := s.Max()
		wmin := w.MinV
		wmax, _ := w.Max()
		if smin != wmin || smax != wmax {
			t.Fatalf("trial %d: min/max (%g,%g) vs (%g,%g)", trial, wmin, wmax, smin, smax)
		}
	}
}

// property: splitting a stream into chunks and merging the partials must
// agree with the bulk accumulator (same data, any split point).
func TestWelfordMergeMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(500)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.NormFloat64()*50 + 200
		}
		var bulk Welford
		for _, v := range values {
			bulk.Add(v)
		}
		cut := 1 + rng.Intn(n-1)
		var a, b Welford
		for _, v := range values[:cut] {
			a.Add(v)
		}
		for _, v := range values[cut:] {
			b.Add(v)
		}
		a.Merge(b)
		if a.Count != bulk.Count {
			t.Fatalf("trial %d: merged n %d != %d", trial, a.Count, bulk.Count)
		}
		if !closeRel(a.MeanV, bulk.MeanV, 1e-9) || !closeRel(a.M2, bulk.M2, 1e-6) {
			t.Fatalf("trial %d (cut %d): merged mean/m2 (%g, %g) vs bulk (%g, %g)",
				trial, cut, a.MeanV, a.M2, bulk.MeanV, bulk.M2)
		}
		if a.MinV != bulk.MinV || a.MaxV != bulk.MaxV {
			t.Fatalf("trial %d: merged min/max (%g,%g) vs bulk (%g,%g)",
				trial, a.MinV, a.MaxV, bulk.MinV, bulk.MaxV)
		}
	}
}

func TestWelfordMergeEmptyAndDeterministicOrder(t *testing.T) {
	var w Welford
	w.Merge(Welford{}) // no-op
	if w.Count != 0 {
		t.Fatalf("merging empty into empty produced n=%d", w.Count)
	}
	w.Add(3)
	w.Merge(Welford{})
	if w.Count != 1 || w.MeanV != 3 {
		t.Fatalf("merging empty changed state: %+v", w)
	}
	var empty Welford
	empty.Merge(w)
	if empty.Count != 1 || empty.MeanV != 3 || empty.MinV != 3 || empty.MaxV != 3 {
		t.Fatalf("merging into empty lost state: %+v", empty)
	}

	// Same partials merged in the same order must be bit-identical — the
	// determinism contract the ensemble's block reducer relies on.
	mk := func() Welford {
		rng := rand.New(rand.NewSource(7))
		var parts [8]Welford
		for i := range parts {
			for j := 0; j < 100; j++ {
				parts[i].Add(rng.Float64() * 1000)
			}
		}
		var total Welford
		for _, p := range parts {
			total.Merge(p)
		}
		return total
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("fixed-order merge not reproducible: %+v vs %+v", a, b)
	}
}

// property: with unit-width buckets over integer-valued data, the sketch
// quantile is the exact order statistic; with coarser buckets it is within
// one bucket width of Sample's interpolated percentile.
func TestQuantileSketchMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		hi := 200 + rng.Intn(800)
		n := 50 + rng.Intn(5000)
		var s Sample
		q, err := NewQuantileSketch(0, float64(hi), hi)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(hi))
			s.Add(v)
			q.Add(v)
		}
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			got, err := q.Quantile(p)
			if err != nil {
				t.Fatal(err)
			}
			want := exactQuantile(&s, p)
			if got != want {
				t.Fatalf("trial %d: q(%g) = %g, exact order statistic %g", trial, p, got, want)
			}
		}
	}
}

// property: with buckets coarser than the data, the point estimate is
// the bucket lower edge, QuantileBounds brackets the exact order
// statistic, and the bracket is exactly one Width() wide — the error
// bar a caller reports when the sketch has coarsened.
func TestQuantileBoundsBracketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		hi := 1000 + rng.Intn(4000)
		nb := 8 + rng.Intn(60)
		n := 100 + rng.Intn(3000)
		var s Sample
		q, err := NewQuantileSketch(0, float64(hi), nb)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := q.Width(), float64(hi)/float64(nb); got != want {
			t.Fatalf("trial %d: width %g, want %g", trial, got, want)
		}
		for i := 0; i < n; i++ {
			v := float64(rng.Intn(hi))
			s.Add(v)
			q.Add(v)
		}
		eps := 1e-9 * float64(hi)
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			lo, bhi, err := q.QuantileBounds(p)
			if err != nil {
				t.Fatal(err)
			}
			if got := bhi - lo; !closeRel(got, q.Width(), 1e-9) {
				t.Fatalf("trial %d: bounds span %g, want one bucket width %g", trial, got, q.Width())
			}
			point, err := q.Quantile(p)
			if err != nil || point != lo {
				t.Fatalf("trial %d: Quantile %g != bounds lower edge %g (err %v)", trial, point, lo, err)
			}
			exact := exactQuantile(&s, p)
			if exact < lo-eps || exact >= bhi+eps {
				t.Fatalf("trial %d: exact q(%g) = %g outside bucket [%g, %g)", trial, p, exact, lo, bhi)
			}
		}
	}
}

// exactQuantile computes the ceil(p*n)-th order statistic via Percentile's
// sorted backing store.
func exactQuantile(s *Sample, p float64) float64 {
	vals := s.Values()
	// Percentile(0) sorts; reuse it for the sort side effect only.
	if _, err := s.Percentile(0); err != nil {
		return math.NaN()
	}
	sorted := s.values
	rank := int(math.Ceil(p * float64(len(vals))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestQuantileSketchMergeAndClamp(t *testing.T) {
	a, _ := NewQuantileSketch(0, 100, 100)
	b, _ := NewQuantileSketch(0, 100, 100)
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
		b.Add(float64(99 - i))
	}
	b.Add(-5)  // clamps into bucket 0
	b.Add(500) // clamps into the last bucket
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 202 {
		t.Fatalf("merged n = %d, want 202", a.N())
	}
	if v, _ := a.Quantile(0); v != 0 {
		t.Fatalf("q(0) = %g after clamp merge", v)
	}
	if v, _ := a.Quantile(1); v != 99 {
		t.Fatalf("q(1) = %g, want last bucket edge 99", v)
	}
	mismatched, _ := NewQuantileSketch(0, 50, 100)
	mismatched.Add(1)
	if err := a.Merge(mismatched); err == nil {
		t.Fatal("merging mismatched shapes did not error")
	}
}

func TestSampleValuesInsertionOrder(t *testing.T) {
	var s Sample
	for _, v := range []float64{5, 1, 9, 3} {
		s.Add(v)
	}
	got := s.Values()
	want := []float64{5, 1, 9, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values() = %v, want insertion order %v", got, want)
		}
	}
	// Mutating the copy must not touch the sample.
	got[0] = -1
	if v, _ := s.Mean(); v != 4.5 {
		t.Fatalf("mean changed after mutating Values() copy: %g", v)
	}
}

func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*den
}
