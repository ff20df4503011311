package netem

import (
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
	tm.Stop() // unarmed: no-op
	tm.Reset(1000, 1)
	tm.Reset(1, 7) // supersedes the long arm
	select {
	case tag := <-fired:
		if tag != 7 {
			t.Fatalf("expiry carried tag %d, want 7", tag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
	tm.Reset(20, 8)
	tm.Stop()
	select {
	case tag := <-fired:
		t.Fatalf("stopped timer fired with tag %d", tag)
	case <-time.After(60 * time.Millisecond):
	}
}
