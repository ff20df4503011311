package ensemble

import (
	"math/bits"
	"math/rand"
)

// rngState is one trial's private random stream, in one of two modes:
//
//   - Exact: a *rand.Rand seeded with cfg.Seed + trial, the same source a
//     detector.Cluster would use for that trial. Draw-for-draw identical
//     to the simulator path; costs one ~5KB source allocation per trial,
//     so it is reserved for differential tests and small campaigns.
//   - Fast (default): a splittable counter-based splitmix64 stream keyed
//     on (seed, trial). Allocation-free and a few times faster; each
//     trial's counter starts at a mix64-scrambled position, so distinct
//     trials walk disjoint, uncorrelated windows of the splitmix64
//     sequence (pinned by TestRNGAdjacentStreamsIndependent) and
//     campaigns stay embarrassingly parallel and byte-identical at any
//     worker count. Not bitwise-comparable to math/rand, statistically
//     equivalent for Monte-Carlo use.
//
// A running trial draws from a copy held in its view (see trial), stored
// back when the trial ends; an Exact copy shares its source by pointer.
type rngState struct {
	state uint64
	exact *rand.Rand
}

// golden is 2^64/phi, the splitmix64 stream increment.
const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// init keys the stream. Splitting is positional: the trial index offsets
// the pre-mixed seed, and the sum is mixed *again* before it becomes the
// counter start, so stream k is reachable without generating streams
// 0..k-1. The second mix64 is load-bearing: without it the counter start
// would be mix64(seed) + trial·golden, making trial t+1's stream the
// one-draw-shifted window of trial t's (next() advances by the same
// golden increment) — maximally correlated adjacent trials. Mixing
// scatters the starts, so two streams could only share draws if their
// mixed starts differed by an exact multiple of golden within a
// horizon's worth of draws (see TestRNGAdjacentStreamsIndependent).
func (r *rngState) init(seed, trial int64, exact bool) {
	if exact {
		if r.exact == nil {
			r.exact = rand.New(rand.NewSource(seed + trial))
		} else {
			r.exact.Seed(seed + trial)
		}
		return
	}
	r.exact = nil
	r.state = mix64(mix64(uint64(seed)) + uint64(trial)*golden)
}

//hbvet:noalloc
func (r *rngState) next() uint64 {
	r.state += golden
	return mix64(r.state)
}

// float64 returns a uniform draw in [0, 1) — the loss roll.
//
//hbvet:noalloc
func (r *rngState) float64() float64 {
	if r.exact != nil {
		return r.exact.Float64()
	}
	return float64(r.next()>>11) / (1 << 53)
}

// int63n returns a uniform draw in [0, n) — delay jitter and crash
// jitter. The fast path uses Lemire's multiply-shift bound (the tiny
// modulo bias at protocol-sized n is irrelevant and rejection sampling
// would make draw count data-dependent).
//
//hbvet:noalloc
func (r *rngState) int63n(n int64) int64 {
	if r.exact != nil {
		return r.exact.Int63n(n)
	}
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int64(hi)
}
