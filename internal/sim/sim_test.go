package sim

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []int
	mustSchedule(t, s, 30, func() { got = append(got, 3) })
	mustSchedule(t, s, 10, func() { got = append(got, 1) })
	mustSchedule(t, s, 20, func() { got = append(got, 2) })
	end := s.Run()
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTickFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		mustSchedule(t, s, 5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events ran out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

func TestZeroDelayRunsAtCurrentTick(t *testing.T) {
	s := New()
	var at Time = -1
	mustSchedule(t, s, 7, func() {
		if _, err := s.Schedule(0, func() { at = s.Now() }); err != nil {
			t.Errorf("Schedule(0): %v", err)
		}
	})
	s.Run()
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	s := New()
	if _, err := s.Schedule(-1, func() {}); err == nil {
		t.Fatal("Schedule(-1) succeeded, want error")
	}
	mustSchedule(t, s, 10, func() {})
	s.Run()
	if _, err := s.ScheduleAt(5, func() {}); err == nil {
		t.Fatal("ScheduleAt in the past succeeded, want error")
	}
}

// TestScheduleHorizon drives the boundary of the queue's 2^48-tick horizon
// through both entry points: one tick inside is accepted and fires at its
// tick, the horizon itself is ErrHorizon with nothing scheduled — never the
// wheel's panic, also when RunUntil has moved the clock past an idle queue's
// horizon.
func TestScheduleHorizon(t *testing.T) {
	const horizon = Time(1) << 48
	for _, tc := range []struct {
		name     string
		idleTo   Time // RunUntil on the empty queue first
		at       Time // absolute
		relative bool // through Schedule rather than ScheduleAt
		wantErr  bool
	}{
		{name: "Schedule inside", at: horizon - 1, relative: true},
		{name: "Schedule at horizon", at: horizon, relative: true, wantErr: true},
		{name: "ScheduleAt inside", at: horizon - 1},
		{name: "ScheduleAt at horizon", at: horizon, wantErr: true},
		{name: "ScheduleAt far beyond", at: 1<<63 - 1, wantErr: true},
		{name: "idle clock ahead of the queue", idleTo: 1000, at: horizon + 999, relative: true, wantErr: true},
		{name: "idle clock, inside", idleTo: 1000, at: horizon - 1, relative: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			mustSchedule(t, s, 0, func() {})
			s.RunUntil(tc.idleTo)
			keep := mustSchedule(t, s, 5, func() {})
			fired := Time(-1)
			fn := func() { fired = s.Now() }
			var tm Timer
			var err error
			if tc.relative {
				tm, err = s.Schedule(tc.at-s.Now(), fn)
			} else {
				tm, err = s.ScheduleAt(tc.at, fn)
			}
			if tc.wantErr {
				if !errors.Is(err, ErrHorizon) {
					t.Fatalf("err = %v, want ErrHorizon", err)
				}
				if tm.Active() || s.Pending() != 1 || s.scheduled != 2 {
					t.Fatalf("rejected event left a trace: active %v, pending %d, scheduled %d",
						tm.Active(), s.Pending(), s.scheduled)
				}
				s.Run()
				if fired != -1 || keep.Active() {
					t.Fatalf("after Run: rejected event fired at %d, earlier timer active %v", fired, keep.Active())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tm.At() != tc.at || s.Pending() != 2 {
				t.Fatalf("At() = %d, Pending() = %d, want %d, 2", tm.At(), s.Pending(), tc.at)
			}
			if end := s.Run(); fired != tc.at || end != tc.at {
				t.Fatalf("fired at %d, run ended at %d, want %d", fired, end, tc.at)
			}
		})
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	tm := mustSchedule(t, s, 10, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Active() {
		t.Fatal("Active() = true after Cancel")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New()
	tm := mustSchedule(t, s, 1, func() {})
	s.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	var fired []Time
	mustSchedule(t, s, 10, func() { fired = append(fired, s.Now()) })
	mustSchedule(t, s, 50, func() { fired = append(fired, s.Now()) })
	if got := s.RunUntil(25); got != 25 {
		t.Fatalf("RunUntil(25) = %d", got)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if got := s.RunUntil(s.Now() + 25); got != 50 {
		t.Fatalf("RunUntil(Now()+25) = %d, want 50", got)
	}
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want two events", fired)
	}
}

func TestRunUntilWithEventAtDeadline(t *testing.T) {
	s := New()
	fired := false
	mustSchedule(t, s, 10, func() { fired = true })
	s.RunUntil(10)
	if !fired {
		t.Fatal("event at the deadline did not run")
	}
}

func TestCounters(t *testing.T) {
	s := New()
	tm := mustSchedule(t, s, 1, func() {})
	mustSchedule(t, s, 2, func() {})
	tm.Cancel()
	s.Run()
	if s.scheduled != 2 {
		t.Fatalf("scheduled = %d, want 2", s.scheduled)
	}
	if s.EventsExecuted() != 1 {
		t.Fatalf("executed = %d, want 1", s.EventsExecuted())
	}
}

func TestSeedDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(WithSeed(seed))
		var out []int64
		for i := 0; i < 64; i++ {
			out = append(out, s.Rand().Int63n(1000))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestPropertyMonotonicTime checks that for any random batch of schedules,
// events execute in nondecreasing time order and the clock never goes back.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var times []Time
		for _, d := range delays {
			d := Time(d % 1000)
			if _, err := s.Schedule(d, func() { times = append(times, s.Now()) }); err != nil {
				return false
			}
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNestedScheduling checks that events scheduled from inside
// events still respect time order, with random fan-out.
func TestPropertyNestedScheduling(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var times []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			times = append(times, s.Now())
			if depth >= 3 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				d := Time(rng.Intn(50))
				if _, err := s.Schedule(d, func() { spawn(depth + 1) }); err != nil {
					t.Errorf("nested schedule: %v", err)
				}
			}
		}
		for i := 0; i < 5; i++ {
			d := Time(rng.Intn(100))
			if _, err := s.Schedule(d, func() { spawn(0) }); err != nil {
				return false
			}
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCancelSubset checks that cancelling a random subset fires
// exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(mask uint32) bool {
		s := New()
		fired := make(map[int]bool)
		var timers []Timer
		for i := 0; i < 32; i++ {
			i := i
			tm, err := s.Schedule(Time(i%7), func() { fired[i] = true })
			if err != nil {
				return false
			}
			timers = append(timers, tm)
		}
		for i, tm := range timers {
			if mask&(1<<uint(i)) != 0 {
				tm.Cancel()
			}
		}
		s.Run()
		for i := 0; i < 32; i++ {
			want := mask&(1<<uint(i)) == 0
			if fired[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func mustSchedule(t *testing.T, s *Simulator, d Time, fn Event) Timer {
	t.Helper()
	tm, err := s.Schedule(d, fn)
	if err != nil {
		t.Fatalf("Schedule(%d): %v", d, err)
	}
	return tm
}
