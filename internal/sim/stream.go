package sim

// The simulator's random stream: math/rand's default Source, continued as
// a concrete type, so that a draw is an inlined add instead of a call
// through the rand.Source interface. The Simulator's Rand hands it out
// (netem's loss and delay draws, a scenario's crash jitter), the fault
// layer draws from one, and every fleet shard owns one.
//
// rand.NewSource is an additive lagged-Fibonacci generator: its n-th
// Uint64 output is y_n = y_(n-607) + y_(n-273) mod 2^64 (rngSource.Uint64
// in math/rand/rng.go), over a register its Seed fills with
// seedrand(seed)-chain values XORed with the rngCooked table. NewStream
// fills the register with the same values, but does not walk the chain:
// seedrand multiplies by 48271 modulo 2^31 - 1, so the chain's j-th value
// is 48271^j·seed mod (2^31 - 1), one product with a table of powers, and
// no value waits for the one before it. Nor does it copy rngCooked: the
// table is recovered once per process from one seeded math/rand source, by
// draining its first 607 outputs, solving the recurrence backwards for the
// register before them and XORing out that seed's chain. So the values —
// and with them every digest recorded while the simulator and the fleet
// drew through rand.Rand — are math/rand's, with no math/rand call after
// the first stream. TestStreamMatchesMathRand holds Int63, Int31n, Int63n
// and Float64 to rand.New(rand.NewSource(seed)), and
// TestSeedPowersMatchSeedrand the table of powers to the iterated chain.

import (
	"math/rand"
	"sync"
)

// The lags of math/rand's source (rngLen and rngTap in math/rand/rng.go).
const (
	streamLen = 607
	streamTap = 273
)

// Stream is a deterministic random number generator drawing math/rand's
// default source's values. vec[i] holds y_(n-607) for the next draw n;
// vec[(i+streamLen-streamTap) mod streamLen] holds y_(n-273).
type Stream struct {
	i   int
	vec [streamLen]uint64
}

// NewStream returns the stream of rand.NewSource(seed).
func NewStream(seed int64) *Stream {
	cookedOnce.Do(recoverCooked)
	s := &Stream{vec: cooked}
	xorSeedChain(&s.vec, seed)
	return s
}

// cooked is math/rand's rngCooked table in the Stream's register layout,
// and seedPowers the multipliers of the seed chain, both filled on the
// first NewStream.
var (
	cookedOnce sync.Once
	cooked     [streamLen]uint64
	seedPowers [streamLen][3]uint32
)

// recoverCooked fills seedPowers, then cooked from the source of seed 1:
// its register, solved back from its first 607 outputs, with seed 1's
// chain XORed out.
func recoverCooked() {
	p := uint64(1)
	for j := 1; j <= seedSkip; j++ {
		p = mulMod(p, seedMul)
	}
	for w := range seedPowers {
		for i := range seedPowers[w] {
			p = mulMod(p, seedMul)
			seedPowers[w][i] = uint32(p) // 48271^(21+3w+i)
		}
	}
	src := rand.NewSource(1).(rand.Source64) // documented to hold
	for k := range cooked {
		cooked[k] = src.Uint64() // y_k
	}
	// y_(k-607) = y_k - y_(k-273), for k from 606 down: y_(k-273) is still
	// in its slot for k >= 273 and was solved for k < 273.
	for k := streamLen - 1; k >= 0; k-- {
		cooked[k] -= cooked[(k+streamLen-streamTap)%streamLen]
	}
	xorSeedChain(&cooked, 1)
}

// The seed chain: math/rand's seedrand steps x to 48271·x mod (2^31 - 1),
// and rngSource.Seed discards the first seedSkip values of the chain from
// the normalised seed before it fills the register.
const (
	seedMod  = 1<<31 - 1
	seedMul  = 48271
	seedSkip = 20
)

// mulMod returns a·x mod (2^31 - 1) for a, x below 2^31 - 1: the
// product's low 31 bits and the bits above them add up to it modulo the
// Mersenne prime, and their sum is below twice the prime.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&seedMod + p>>31
	if r >= seedMod {
		r -= seedMod
	}
	return r
}

// xorSeedChain XORs into vec the values rngSource.Seed(seed) XORs with
// rngCooked, each into the slot that holds its register word. Seed fills
// word w of its register (w = 0..606) from chain values 21+3w, 22+3w and
// 23+3w, the chain starting at the normalised seed x; value j is
// 48271^j·x mod (2^31 - 1), so each is one product with seedPowers and no
// value waits for the one before it. The source's draw n reads word
// (333-n) mod 607 as y_(n-607); the Stream keeps y_(k-607) in vec[k], so
// word w lands in vec[(333-w) mod 607].
func xorSeedChain(vec *[streamLen]uint64, seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	k := streamLen - streamTap - 1
	for w := range seedPowers {
		p := &seedPowers[w]
		u := mulMod(uint64(p[0]), x)<<40 ^ mulMod(uint64(p[1]), x)<<20 ^ mulMod(uint64(p[2]), x)
		vec[k] ^= u
		if k--; k < 0 {
			k = streamLen - 1
		}
	}
}

// Int63 returns the next value of rand.Rand.Int63: the source's next
// Uint64 with its top bit cleared.
//
//hbvet:noalloc
func (s *Stream) Int63() int64 {
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

// Int31n returns the next value of rand.Rand.Int31n(n), and of
// rand.Rand.Intn(n), for 0 < n < 2^31: a power of two masks one Int31, any
// other n redraws the Int31s past the largest multiple of n.
//
//hbvet:noalloc
func (s *Stream) Int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// Int63n returns the next value of rand.Rand.Int63n(n) for n > 0: a power
// of two masks one Int63, any other n redraws the Int63s past the largest
// multiple of n.
//
//hbvet:noalloc
func (s *Stream) Int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// Float64 returns the next value of rand.Rand.Float64: an Int63 draw
// scaled into [0, 1), redrawn when the quotient rounds to 1 (the draws
// from Float64One up).
//
//hbvet:noalloc
func (s *Stream) Float64() float64 {
	for {
		if x := s.Int63(); x < Float64One {
			return float64(x) / (1 << 63)
		}
	}
}

// Float64One is the least Int63 value x that rand.Rand.Float64 turns into
// 1.0 and redraws: float64(x) rounds to the nearest multiple of 2^10 just
// below 2^63, and from 2^63 - 2^9 (the tie, which goes to the even 2^63)
// up it rounds to 2^63, so float64(x)/(1<<63) == 1.
const Float64One = 1<<63 - 1<<9

// LossCut returns the least x with float64(x)/(1<<63) >= p, for p in
// [0, 1]: for an Int63 draw x below Float64One, Float64's verdict
// float64(x)/(1<<63) < p is x < LossCut(p), since the quotient does not
// fall as x grows. Binary search over [0, Float64One], where the quotient
// is 1 at the top.
func LossCut(p float64) int64 {
	lo, hi := int64(0), int64(Float64One)
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

// StreamOf returns a stream whose next Int63 draws are the given values,
// at most streamTap of them: draw n is vec[n] + vec[n+334], and the second
// term is zero.
//
//lint:allow unused-export test fake: fleet's loss-roll tests play crafted draws through it (fleet/shard_test.go)
func StreamOf(draws []int64) *Stream {
	if len(draws) > streamTap {
		panic("sim: StreamOf takes at most 273 draws")
	}
	s := &Stream{}
	for n, x := range draws {
		s.vec[n] = uint64(x)
	}
	return s
}
