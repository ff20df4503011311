package sim

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesMathRand holds the stream to the math/rand draws it
// replaces, value for value: Int63, Int31n, Int63n and Float64
// interleaved, from the seeded register well into the recurrence, for
// negative, zero and large seeds, the simulator's seeds and the seeds
// fleet.New gives its shards. Int31n runs at powers of two (the
// fleet_epochs benchmark's 16384 rows a shard and the 2^29 rows a shard
// may hold among them), at 1000, at 192 rows a shard, and at 2^30+1, where
// it redraws about half its Int31s; Int63n at the n of
// TestInt63nAndFloat64MatchMathRand.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 7, 42, -42, 1 << 31, -(1 << 31) + 1, 2147483647, 89482311, math.MaxInt64, math.MinInt64}
	for id := int64(0); id < 16; id++ {
		seeds = append(seeds, 42+id*0x9E3779B9, 1+id*0x9E3779B9)
	}
	ns := []int32{1 << 10, 1000, 96 / 8 * 16, 16384 / 64 * 64, 1 << 29, 1<<30 + 1, 3}
	draws := 1_000_000
	if testing.Short() {
		draws = 20_000
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := NewStream(seed)
		for d := 0; d < draws; d++ {
			// Mixed runs of each kind, so that every index of the register
			// meets each.
			switch d % 10 {
			case 0, 1, 2, 3:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, draw %d: Int63 %d, math/rand %d", seed, d, g, w)
				}
			case 4, 5:
				n := ns[d%len(ns)]
				if g, w := got.Int31n(n), want.Intn(int(n)); int(g) != w {
					t.Fatalf("seed %d, draw %d: Int31n(%d) %d, math/rand Intn %d", seed, d, n, g, w)
				}
			case 6, 7:
				n := int63ns[d%len(int63ns)]
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d, draw %d: Int63n(%d) %d, math/rand %d", seed, d, n, g, w)
				}
			default:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, d, g, w)
				}
			}
		}
	}
}

// seedrand is math/rand's: x[n+1] = 48271 * x[n] mod (2^31 - 1), by
// Schrage's method.
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += 1<<31 - 1
	}
	return x
}

// TestSeedPowersMatchSeedrand holds the seeding table to the chain it
// replaces: entry [w][i] is the chain's value 21+3w+i from 1, the 20
// discarded values and 3w+i more iterated seedrand steps on; and a product with it is
// the chain's value 21+k from any other start, checked at both ends of the
// seed range and at seeds math/rand folds.
func TestSeedPowersMatchSeedrand(t *testing.T) {
	NewStream(0) // fills the table
	x := int32(1)
	for j := 0; j < seedSkip; j++ {
		x = seedrand(x)
	}
	for k, p := range seedPowers {
		for i, p := range p {
			x = seedrand(x)
			if int32(p) != x {
				t.Fatalf("seedPowers[%d][%d] = %d, the chain's value %d from 1 is %d", k, i, p, seedSkip+1+3*k+i, x)
			}
		}
	}
	for _, start := range []int32{1, 2, 7, 89482311, seedMod - 2, seedMod - 1} {
		x := start
		for j := 0; j < seedSkip; j++ {
			x = seedrand(x)
		}
		for k, p := range seedPowers {
			for i, p := range p {
				x = seedrand(x)
				if got := mulMod(uint64(p), uint64(start)); got != uint64(x) {
					t.Fatalf("start %d: value %d is %d by the table, %d by the chain", start, seedSkip+1+3*k+i, got, x)
				}
			}
		}
	}
}

// int63ns are the bounds Int63n is held to math/rand at: the smallest
// non-trivial power of two, 3 (the smallest n that redraws), powers of two
// up to 2^62, and 2^40+1, whose redraw bound sits far below 2^63.
var int63ns = []int64{2, 3, 1 << 7, 1 << 20, 1 << 40, 1 << 62, 1<<40 + 1}

// TestInt63nAndFloat64MatchMathRand draws only Int63n(n), for each n of
// int63ns, and only Float64 from fresh streams, past the 607 draws that
// read the seeded register and into the values the recurrence computes
// from draws already made.
func TestInt63nAndFloat64MatchMathRand(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		for _, n := range int63ns {
			want := rand.New(rand.NewSource(seed))
			got := NewStream(seed)
			for d := 0; d < 3*streamLen; d++ {
				if g, w := got.Int63n(n), want.Int63n(n); g != w {
					t.Fatalf("seed %d, draw %d: Int63n(%d) %d, math/rand %d", seed, d, n, g, w)
				}
			}
		}
		want := rand.New(rand.NewSource(seed))
		got := NewStream(seed)
		for d := 0; d < 3*streamLen; d++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, draw %d: Float64 %v, math/rand %v", seed, d, g, w)
			}
		}
	}
}

// TestLossCutMatchesFloat64 holds the integer loss cut to the float
// compare it replaces: for every draw x below the redraw bound,
// x < LossCut(p) iff float64(x)/(1<<63) < p, checked at the cut's edges,
// at the ends of the range and at the bound; and the bound is where
// float64(x)/(1<<63) becomes 1, found here by search, not read from
// Float64One.
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
	if bound != Float64One {
		t.Fatalf("Float64One = %d, want %d", int64(Float64One), bound)
	}

	for _, p := range []float64{0, math.SmallestNonzeroFloat64, 1e-12, 0.01, 0.1, 0.5, 1 - 0x1p-53, 1} {
		cut := LossCut(p)
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
	if LossCut(0) != 0 {
		t.Errorf("LossCut(0) = %d: a loss-free shard would draw", LossCut(0))
	}
	if LossCut(1) != bound {
		t.Errorf("LossCut(1) = %d, want the bound %d: every drawn x is lost", LossCut(1), bound)
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

// TestIntnRedrawsLikeMathRand feeds Stream.Int31n and rand.Rand.Intn the
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
			st := StreamOf(draws)
			got := st.Int31n(n)
			src := fixedSource(draws)
			want := rand.New(&src).Intn(int(n))
			if int(got) != want || st.i != len(draws)-len(src) {
				t.Errorf("n=%d Int31s %v: Int31n %d after %d draws, math/rand %d after %d",
					n, int31s, got, st.i, want, len(draws)-len(src))
			}
		}
	}
}

// TestRedrawsLikeMathRand feeds Float64 and Int63n, and their math/rand
// counterparts, the same draws at the edges where each redraws: Float64
// from Float64One up, Int63n past the largest multiple of n. Both sides
// take the same number of draws and return the same value.
func TestRedrawsLikeMathRand(t *testing.T) {
	for _, draws := range [][]int64{
		{Float64One, 0},
		{math.MaxInt64, Float64One, 5},
		{Float64One - 1},
		{Float64One + 1, 1 << 62},
	} {
		st := StreamOf(draws)
		got := st.Float64()
		src := fixedSource(draws)
		want := rand.New(&src).Float64()
		if got != want || st.i != len(draws)-len(src) {
			t.Errorf("draws %v: Float64 %v after %d draws, math/rand %v after %d", draws, got, st.i, want, len(draws)-len(src))
		}
	}
	for _, n := range int63ns {
		max := int64(1<<63 - 1 - (1<<63)%uint64(n))
		for _, draws := range [][]int64{{max, 7}, {max + 1, max}, {max + 1, max + 1, 5}, {math.MaxInt64, 0}} {
			if max == math.MaxInt64 && draws[0] == max+1 {
				continue // a power of two keeps every draw
			}
			st := StreamOf(draws)
			got := st.Int63n(n)
			src := fixedSource(draws)
			want := rand.New(&src).Int63n(n)
			if got != want || st.i != len(draws)-len(src) {
				t.Errorf("n=%d draws %v: Int63n %d after %d draws, math/rand %d after %d", n, draws, got, st.i, want, len(draws)-len(src))
			}
		}
	}
}

// BenchmarkNewStream and BenchmarkNewSource compare a stream's seeding with
// the math/rand source it replaces.
func BenchmarkNewStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		streamSink = NewStream(int64(i))
	}
}

func BenchmarkNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sourceSink = rand.New(rand.NewSource(int64(i)))
	}
}

var (
	streamSink *Stream
	sourceSink *rand.Rand
)
