package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand holds the shards' stream to the math/rand
// draws it replaces, value for value: Int63 and Intn interleaved, past
// the 607 drained draws the stream replays and well into the recurrence,
// for negative, zero and large seeds and the seeds New gives its shards.
// Intn runs at powers of two (the fleet_epochs benchmark's 16384 rows a
// shard and the most rows a shard may hold among them), at 1000, at
// testConfig's 192 rows a shard, and at 2^30+1, where Int31n redraws about
// half its Int31s.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, -42, 1 << 31, -(1 << 31) + 1, 2147483647, 89482311, math.MaxInt64, math.MinInt64}
	for id := int64(0); id < 16; id++ {
		seeds = append(seeds, 42+id*0x9E3779B9, 1+id*0x9E3779B9)
	}
	ns := []int32{1 << 10, 1000, 96 / 8 * 16, 16384 / 64 * 64, idxMask + 1, 1<<30 + 1, 3}
	draws := 1_000_000
	if testing.Short() {
		draws = 20_000
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newStream(seed)
		for d := 0; d < draws; d++ {
			// Mixed runs of each kind, so that every draw index of the
			// replay window meets both.
			if d%7 < 4 {
				if g, w := got.int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, draw %d: int63 %d, math/rand %d", seed, d, g, w)
				}
				continue
			}
			n := ns[d%len(ns)]
			if g, w := got.intn(n), want.Intn(int(n)); int(g) != w {
				t.Fatalf("seed %d, draw %d: intn(%d) %d, math/rand %d", seed, d, n, g, w)
			}
		}
	}
}

// TestLossCutMatchesFloat64 holds the integer loss cut to the float
// compare it replaces: for every draw x below the redraw bound,
// x < lossCut(p) iff float64(x)/(1<<63) < p, checked at the cut's edges,
// at the ends of the range and at the bound; and the bound is where
// float64(x)/(1<<63) becomes 1, found here by search, not read from
// float64One.
func TestLossCutMatchesFloat64(t *testing.T) {
	const two63 = 1 << 63
	quotient := func(x int64) float64 { return float64(x) / two63 }
	// The least x in [0, 2^63) with quotient 1: the quotient does not
	// fall as x grows, and is below 1 at 0.
	lo, hi := int64(0), int64(math.MaxInt64)
	if quotient(hi) != 1 {
		t.Fatalf("float64(MaxInt64)/2^63 = %v, want 1", quotient(hi))
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; quotient(mid) == 1 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	bound := lo
	if quotient(bound-1) >= 1 || quotient(bound) != 1 {
		t.Fatalf("bound %d: quotients %v and %v", bound, quotient(bound-1), quotient(bound))
	}
	if bound != float64One {
		t.Fatalf("float64One = %d, want %d", int64(float64One), bound)
	}

	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 1e-12, 0.01, 0.1, 0.5, 1 - 0x1p-53, 1} {
		cut := lossCut(p)
		for _, x := range []int64{0, 1, 2, cut - 1, cut, cut + 1, bound - 2, bound - 1} {
			if x < 0 || x >= bound {
				continue
			}
			if got, want := x < cut, quotient(x) < p; got != want {
				t.Errorf("p=%v cut=%d: x=%d lost %v, Float64 says %v", p, cut, x, got, want)
			}
		}
		if cut > 0 && quotient(cut-1) >= p || cut < bound && quotient(cut) < p {
			t.Errorf("p=%v: cut %d is not the least x with x/2^63 >= p", p, cut)
		}
	}
	if lossCut(0) != 0 {
		t.Errorf("lossCut(0) = %d: a loss-free shard would draw", lossCut(0))
	}
	if lossCut(1) != bound {
		t.Errorf("lossCut(1) = %d, want the bound %d: every drawn x is lost", lossCut(1), bound)
	}
}

// fixedSource plays back fixed Int63 values through rand.Rand.
type fixedSource []int64

func (f *fixedSource) Int63() int64 {
	x := (*f)[0]
	*f = (*f)[1:]
	return x
}

func (*fixedSource) Seed(int64) {}

// streamOf returns a stream whose next draws are the Int63 values given:
// draw n is vec[n] + vec[n+334], and the second term is zero.
func streamOf(draws []int64) *stream {
	st := &stream{}
	for n, x := range draws {
		st.vec[n] = uint64(x)
	}
	return st
}

// TestIntnRedrawsLikeMathRand feeds stream.intn and rand.Rand.Intn the
// same draws at the edge of Int31n's redraw bound (the largest Int31
// below a multiple of n is kept, the next one redrawn): both take the same
// draws and return the same value.
func TestIntnRedrawsLikeMathRand(t *testing.T) {
	for _, n := range []int32{3, 1000, 192, 1<<30 + 1} {
		max := int64(1<<31 - 1 - (1<<31)%uint32(n))
		for _, int31s := range [][]int64{{max, 7}, {max + 1, max}, {max + 1, max + 1, 5}, {1<<31 - 1, 0}} {
			draws := make([]int64, len(int31s))
			for i, v := range int31s {
				draws[i] = v<<32 | 0x5a5a5a5a // Int31 is the draw's top 31 bits
			}
			st := streamOf(draws)
			got := st.intn(n)
			src := fixedSource(draws)
			want := rand.New(&src).Intn(int(n))
			if int(got) != want || st.i != len(draws)-len(src) {
				t.Errorf("n=%d Int31s %v: intn %d after %d draws, math/rand %d after %d",
					n, int31s, got, st.i, want, len(draws)-len(src))
			}
		}
	}
}

// TestRollRedrawsLikeFloat64 feeds shard.roll and rand.Rand.Float64 the
// same draws, among them ones Float64 rounds to 1.0 and redraws: the two
// take the same number of draws and reach the same verdict.
func TestRollRedrawsLikeFloat64(t *testing.T) {
	for _, p := range []float64{0.01, 0.5, 1} {
		cut := lossCut(p)
		for _, draws := range [][]int64{
			{float64One, 0},
			{math.MaxInt64, float64One, cut - 1},
			{float64One - 1},
			{float64One + 1, cut - 1},
			{cut, 0},
		} {
			st := streamOf(draws)
			s := &shard{rng: st, lossCut: cut}
			got := s.roll()
			src := fixedSource(draws)
			want := rand.New(&src).Float64() < p
			if got != want || st.i != len(draws)-len(src) {
				t.Errorf("p=%v draws %v: roll %v after %d draws, Float64 %v after %d",
					p, draws, got, st.i, want, len(draws)-len(src))
			}
		}
	}
}
