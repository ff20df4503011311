package netem

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSimTimerResetAndStopAreExact(t *testing.T) {
	s := sim.New()
	var got []uint64
	tm := SimClock{Sim: s}.NewTimer(func(tag uint64) { got = append(got, tag) })

	tm.Reset(5, 1)
	tm.Reset(3, 2) // supersedes tag 1
	s.Run()
	if len(got) != 1 || got[0] != 2 || s.Now() != 3 {
		t.Fatalf("after two Resets: fired %v at t=%d, want [2] at t=3", got, s.Now())
	}

	tm.Reset(4, 3)
	tm.Stop()
	tm.Stop() // idempotent
	s.Run()
	if len(got) != 1 {
		t.Fatalf("a stopped timer fired: %v", got)
	}
	tm.Reset(0, 4) // a stopped timer arms again
	s.Run()
	if len(got) != 2 || got[1] != 4 {
		t.Fatalf("after Stop and Reset: fired %v, want [2 4]", got)
	}
}

func TestSimTimerRearmAllocFree(t *testing.T) {
	s := sim.New()
	tm := SimClock{Sim: s}.NewTimer(func(uint64) {})
	tm.Reset(1, 0)
	s.Run()
	if n := testing.AllocsPerRun(100, func() {
		tm.Reset(2, 1)
		tm.Reset(1, 2)
		s.Run()
		tm.Reset(1, 3)
		tm.Stop()
	}); n != 0 {
		t.Fatalf("sim timer rearm allocates %v per run, want 0", n)
	}
}

// TestSimTimerResetBounds drives Reset at the limits of the largest Time,
// in the style of faults' TestScheduleBounds: the last delay that fits and
// the first that does not both arm (the second saturates at the largest
// Time), and neither panics — arming cannot fail. A delay of 0 fires at
// once, and so does a negative one, which the interface rules out.
func TestSimTimerResetBounds(t *testing.T) {
	const now, maxTime = sim.Time(1000), sim.Time(math.MaxInt64)
	for _, tc := range []struct {
		d, want sim.Time
	}{
		{maxTime - now, maxTime},
		{maxTime - now + 1, maxTime},
		{maxTime, maxTime},
		{0, now},
		{-1, now},
		{math.MinInt64, now},
	} {
		s := sim.New()
		s.RunUntil(now)
		fired := sim.Time(-1)
		tm := SimClock{Sim: s}.NewTimer(func(uint64) { fired = s.Now() })
		tm.Reset(tc.d, 1)
		if tc.want > now {
			if s.RunUntil(1 << 62); fired != -1 {
				t.Errorf("Reset(%d) fired at %d, before the largest Time", tc.d, fired)
			}
		}
		if s.Run(); fired != tc.want {
			t.Errorf("Reset(%d) at %d fired at %d, want %d", tc.d, now, fired, tc.want)
		}
	}
}

func TestNewWallClockRejectsNonPositiveTick(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Millisecond} {
		if c, err := NewWallClock(d); err == nil {
			t.Errorf("NewWallClock(%v) = %v, want an error", d, c)
		}
	}
	c, err := NewWallClock(time.Nanosecond)
	if err != nil {
		t.Fatalf("NewWallClock(1ns): %v", err)
	}
	if c.Now() < 0 {
		t.Fatalf("Now() = %d, want >= 0", c.Now())
	}
}

func TestWallTimerDeliversTagAndStops(t *testing.T) {
	c, err := NewWallClock(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan uint64, 1)
	tm := c.NewTimer(func(tag uint64) { fired <- tag })
	c.Do(func() {
		tm.Stop() // unarmed: no-op
		tm.Reset(1000, 1)
		tm.Reset(1, 7) // supersedes the long arm
	})
	select {
	case tag := <-fired:
		if tag != 7 {
			t.Fatalf("expiry carried tag %d, want 7", tag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	c.Do(func() {
		tm.Reset(20, 8)
		tm.Stop()
	})
	select {
	case tag := <-fired:
		t.Fatalf("stopped timer fired with tag %d", tag)
	case <-time.After(60 * time.Millisecond):
	}
}

// TestWallTimerExpiryRunsOnTheClock: an expiry that comes due while
// something else holds the clock waits for it, so the runtime on a
// WallClock runs one callback at a time.
func TestWallTimerExpiryRunsOnTheClock(t *testing.T) {
	c, err := NewWallClock(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{}, 1)
	tm := c.NewTimer(func(uint64) { fired <- struct{}{} })
	c.Do(func() {
		tm.Reset(0, 1)
		select {
		case <-fired:
			t.Error("expiry ran while the clock was held")
		case <-time.After(30 * time.Millisecond):
		}
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("expiry never ran once the clock was free")
	}
}
