package fleet

// A shard's random stream: math/rand's default Source, continued as a
// concrete type so that a loss roll is an inlined add and compare instead
// of a call through the rand.Source interface.
//
// rand.NewSource is an additive lagged-Fibonacci generator: its n-th
// Uint64 output is y_n = y_(n-607) + y_(n-273) mod 2^64 (rngSource.Uint64
// in math/rand/rng.go), over a register its Seed fills from the seed and
// the rngCooked table. The stream drains the seeded source's first 607
// outputs and solves the recurrence backwards for the 607 values before
// them; from that register the recurrence itself replays the drained
// outputs as draws 0..606 and continues the source's sequence after them.
// So the values — and with them every fleet digest recorded while shards
// drew through rand.Rand — are math/rand's, with no copy of rngCooked and
// no math/rand call after seeding. TestStreamMatchesMathRand holds Int63
// and Intn to rand.New(rand.NewSource(seed)).

import "math/rand"

// The lags of math/rand's source (rngLen and rngTap in math/rand/rng.go).
const (
	streamLen = 607
	streamTap = 273
)

// stream is a shard's random number generator. vec[i] holds y_(n-607) for
// the next draw n; vec[(i+streamLen-streamTap) mod streamLen] holds
// y_(n-273).
type stream struct {
	i   int
	vec [streamLen]uint64
}

// newStream returns the stream of rand.NewSource(seed).
func newStream(seed int64) *stream {
	src := rand.NewSource(seed).(rand.Source64) // documented to hold
	s := &stream{}
	for k := range s.vec {
		s.vec[k] = src.Uint64() // y_k
	}
	// y_(k-607) = y_k - y_(k-273), for k from 606 down: y_(k-273) is still
	// in its slot for k >= 273 and was solved for k < 273.
	for k := streamLen - 1; k >= 0; k-- {
		s.vec[k] -= s.vec[(k+streamLen-streamTap)%streamLen]
	}
	return s
}

// int63 returns the next value of rand.Rand.Int63: the source's next
// Uint64 with its top bit cleared.
//
//hbvet:noalloc
func (s *stream) int63() int64 {
	i := s.i
	j := i + streamLen - streamTap
	if j >= streamLen {
		j -= streamLen
	}
	y := s.vec[i] + s.vec[j]
	s.vec[i] = y
	if i++; i == streamLen {
		i = 0
	}
	s.i = i
	return int64(y & (1<<63 - 1))
}

// intn returns the next value of rand.Rand.Intn(n) for 0 < n < 2^31,
// which rand.Rand draws through Int31n: a power of two masks one Int31,
// any other n redraws the Int31s past the largest multiple of n.
//
//hbvet:noalloc
func (s *stream) intn(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.int63()>>32) & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.int63() >> 32)
	for v > max {
		v = int32(s.int63() >> 32)
	}
	return v % n
}

// float64One is the least Int63 value x that rand.Rand.Float64 turns into
// 1.0 and redraws: float64(x) rounds to the nearest multiple of 2^10 just
// below 2^63, and from 2^63 - 2^9 (the tie, which goes to the even 2^63)
// up it rounds to 2^63, so float64(x)/(1<<63) == 1.
const float64One = 1<<63 - 1<<9

// lossCut returns the least x with float64(x)/(1<<63) >= p, for p in
// [0, 1]: for an Int63 draw x below float64One, Float64's verdict
// float64(x)/(1<<63) < p is x < lossCut(p), since the quotient does not
// fall as x grows. Binary search over [0, float64One], where the quotient
// is 1 at the top.
func lossCut(p float64) int64 {
	lo, hi := int64(0), int64(float64One)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) >= p {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
