package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// lockedDrift is the reference DriftClock: one mutable rate segment whose
// every read and write takes the lock, and which always divides.
type lockedDrift struct {
	mu                      sync.Mutex
	num, den                int64
	anchorReal, anchorLocal sim.Time
}

func (r *lockedDrift) localAt(real sim.Time) sim.Time {
	return r.anchorLocal + sim.Time(int64(real-r.anchorReal)*r.num/r.den)
}

func (r *lockedDrift) now(real sim.Time) sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.localAt(real)
}

func (r *lockedDrift) set(real sim.Time, num, den int64, skew core.Tick) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.anchorLocal = r.localAt(real) + sim.Time(skew)
	r.anchorReal = real
	r.num, r.den = num, den
}

func (r *lockedDrift) delay(d sim.Time) sim.Time {
	r.mu.Lock()
	num, den := r.num, r.den
	r.mu.Unlock()
	return sim.Time((int64(d)*den + num - 1) / num)
}

// TestDriftClockMatchesLockedReference runs random programs of rate
// changes, reads and timer arms against the locked reference. Rates are
// drawn from 1..MaxDriftTerm, a third of them k/k with k > 1 (the rates
// whose divide the clock skips), with random skews and delays.
func TestDriftClockMatchesLockedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	term := func() int64 {
		if rng.Intn(2) == 0 {
			return 1 + rng.Int63n(8)
		}
		return 1 + rng.Int63n(MaxDriftTerm)
	}
	for prog := 0; prog < 200; prog++ {
		fc := &fakeClock{now: sim.Time(rng.Int63n(1 << 20))}
		dc := NewDriftClock(fc)
		tm := dc.NewTimer(func(uint64) {})
		ref := &lockedDrift{num: 1, den: 1}
		for op := 0; op < 200; op++ {
			fc.now += sim.Time(rng.Int63n(1 << 16))
			switch rng.Intn(3) {
			case 0:
				num, den := term(), term()
				if rng.Intn(3) == 0 {
					den = num
				}
				skew := core.Tick(rng.Int63n(2001) - 1000)
				if err := dc.SetDrift(num, den, skew); err != nil {
					t.Fatal(err)
				}
				ref.set(fc.now, num, den, skew)
			case 1:
				if got, want := dc.Now(), ref.now(fc.now); got != want {
					t.Fatalf("program %d op %d: Now() = %d at real %d, reference %d (rate %d/%d)",
						prog, op, got, fc.now, want, ref.num, ref.den)
				}
			case 2:
				d := sim.Time(rng.Int63n(1 << 24))
				if rng.Intn(4) == 0 {
					d = sim.Time(rng.Int63n(4))
				}
				tm.Reset(d, 0)
				if want := ref.delay(d); fc.lastReset != want {
					t.Fatalf("program %d op %d: Reset(%d) armed %d real ticks, reference %d (rate %d/%d)",
						prog, op, d, fc.lastReset, want, ref.num, ref.den)
				}
			}
		}
	}
}

// atomicClock is a netem.Clock safe for concurrent use: a fixed time and
// timers that store the last delay they were armed with.
type atomicClock struct {
	now       sim.Time
	lastReset atomic.Int64
}

func (c *atomicClock) Now() sim.Time                     { return c.now }
func (c *atomicClock) NewTimer(func(uint64)) netem.Timer { return atomicTimer{c} }

type atomicTimer struct{ clock *atomicClock }

func (t atomicTimer) Reset(d sim.Time, _ uint64) { t.clock.lastReset.Store(int64(d)) }
func (atomicTimer) Stop()                        {}

// TestDriftClockConcurrentSetDrift races SetDrift against Now and timer
// arms (run it under -race). Real time stands still and no rate change
// skews, so every change anchors at the same local time: each Now must
// read exactly that time, and each arm must use one of the rates set.
func TestDriftClockConcurrentSetDrift(t *testing.T) {
	rates := [][2]int64{{1, 1}, {3, 2}, {2, 3}, {5, 5}, {MaxDriftTerm, 1}, {1, MaxDriftTerm}}
	const d = 1000
	allowed := map[int64]bool{}
	for _, r := range rates {
		allowed[(d*r[1]+r[0]-1)/r[0]] = true
	}
	inner := &atomicClock{now: 5000}
	dc := NewDriftClock(inner)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 2000; i++ {
			r := rates[i%len(rates)]
			if err := dc.SetDrift(r[0], r[1], 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := dc.NewTimer(func(uint64) {})
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := dc.Now(); got != inner.now {
					t.Errorf("Now() = %d during rate changes at real %d, want %d", got, inner.now, inner.now)
					return
				}
				timer.Reset(d, 0)
				if got := inner.lastReset.Load(); !allowed[got] {
					t.Errorf("Reset(%d) armed %d real ticks, which no rate set gives", d, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
