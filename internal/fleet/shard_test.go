package fleet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// fixedSource plays back fixed Int63 values through rand.Rand.
type fixedSource []int64

func (f *fixedSource) Int63() int64 {
	x := (*f)[0]
	*f = (*f)[1:]
	return x
}

func (*fixedSource) Seed(int64) {}

// TestRollRedrawsLikeFloat64 feeds shard.roll and rand.Rand.Float64 the
// same draws, among them ones Float64 rounds to 1.0 and redraws: the two
// reach the same verdict and take the same number of draws, which the
// stream's next draw shows (each list ends in a value no other draw has).
func TestRollRedrawsLikeFloat64(t *testing.T) {
	const sentinel = 0x5eed
	for _, p := range []float64{0.01, 0.5, 1} {
		cut := sim.LossCut(p)
		for _, draws := range [][]int64{
			{sim.Float64One, 0, sentinel},
			{math.MaxInt64, sim.Float64One, cut - 1, sentinel},
			{sim.Float64One - 1, sentinel},
			{sim.Float64One + 1, cut - 1, sentinel},
			{cut, 0, sentinel},
		} {
			st := sim.StreamOf(draws)
			s := &shard{rng: st, lossCut: cut}
			got := s.roll()
			src := fixedSource(draws)
			want := rand.New(&src).Float64() < p
			if next := st.Int63(); got != want || next != src[0] {
				t.Errorf("p=%v draws %v: roll %v, then draws %d; Float64 %v, then %d",
					p, draws, got, next, want, src[0])
			}
		}
	}
}
