package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestWheelFireOrderMatchesReference pops a randomized schedule out of the
// wheel and checks the exact (time, sequence) order against a sorted
// reference, across delays that exercise every wheel level and the
// cascade paths between them.
func TestWheelFireOrderMatchesReference(t *testing.T) {
	type entry struct {
		at      Time
		seq     int
		payload uint32
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := NewTimerWheel()
		var want []entry
		base := Time(0)
		for i := 0; i < 5000; i++ {
			var d Time
			switch rng.Intn(10) {
			case 0:
				d = 0
			case 1, 2, 3:
				d = Time(rng.Int63n(wheelSlots)) // level 0
			case 4, 5, 6:
				d = Time(rng.Int63n(wheelSlots * wheelSlots)) // level 1
			case 7, 8:
				d = Time(rng.Int63n(1 << (wheelSlotBits * 3))) // level 2
			default:
				d = Time(rng.Int63n(1 << (wheelSlotBits * 4))) // level 3
			}
			at := base + d
			w.Schedule(at, uint32(i))
			want = append(want, entry{at: at, seq: i, payload: uint32(i)})
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		for i, e := range want {
			payload, at, ok := w.Pop()
			if !ok {
				t.Fatalf("seed %d: wheel drained after %d pops, want %d", seed, i, len(want))
			}
			if payload != e.payload || at != e.at {
				t.Fatalf("seed %d: pop %d = (payload %d, at %d), want (%d, %d)",
					seed, i, payload, at, e.payload, e.at)
			}
		}
		if _, _, ok := w.Pop(); ok {
			t.Fatalf("seed %d: wheel not empty after draining", seed)
		}
		if w.Len() != 0 {
			t.Fatalf("seed %d: Len() = %d after drain", seed, w.Len())
		}
	}
}

// TestSimulatorRandomOpsMatchSortedQueue drives the Simulator and a
// test-local reference kernel — a slice kept sorted by (time, schedule
// order) — through an identical randomized program of schedules, cancels,
// re-arms, cancel-inside-event, single steps and RunUntil windows, and
// requires identical fire traces (event and clock at each fire). The
// reference shares no code with the wheel, so any perturbation of the
// wheel's order (cascade, same-tick sort, below-horizon insert) shows as a
// diverging trace.
func TestSimulatorRandomOpsMatchSortedQueue(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		want := runRandomProgram(t, seed, &refKernel{})
		got := runRandomProgram(t, seed, simKernel{New()})
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: simulator %d, reference %d",
				seed, len(got), len(want))
		}
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d fires; the program no longer exercises the queue", seed, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: trace[%d] differs: simulator %+v, reference %+v",
					seed, i, got[i], want[i])
			}
		}
	}
}

type fireRecord struct {
	at Time
	id int
}

// kernel is what runRandomProgram needs of an event queue; cancel is a
// no-op on a fired or already cancelled handle.
type kernel interface {
	now() Time
	schedule(d Time, fn Event) (cancel func() bool)
	step() bool
	runUntil(deadline Time)
	pending() int
}

type simKernel struct{ s *Simulator }

func (k simKernel) now() Time { return k.s.Now() }
func (k simKernel) schedule(d Time, fn Event) func() bool {
	tm, err := k.s.Schedule(d, fn)
	if err != nil {
		panic(err)
	}
	return tm.Cancel
}
func (k simKernel) step() bool             { return k.s.Step() }
func (k simKernel) runUntil(deadline Time) { k.s.RunUntil(deadline) }
func (k simKernel) pending() int           { return k.s.Pending() }

// refKernel is the oracle: pending events in one slice sorted by (at, seq),
// inserted by binary search, removed by linear scan.
type refKernel struct {
	clock Time
	seq   int
	queue []*refEvent
}

type refEvent struct {
	at  Time
	seq int
	fn  Event
}

func (k *refKernel) now() Time { return k.clock }

func (k *refKernel) schedule(d Time, fn Event) func() bool {
	k.seq++
	ev := &refEvent{at: k.clock + d, seq: k.seq, fn: fn}
	// seq is the largest so far: the event goes after every entry at or
	// before its tick.
	pos := sort.Search(len(k.queue), func(i int) bool { return k.queue[i].at > ev.at })
	k.queue = append(k.queue, nil)
	copy(k.queue[pos+1:], k.queue[pos:])
	k.queue[pos] = ev
	return func() bool {
		for i, q := range k.queue {
			if q == ev {
				k.queue = append(k.queue[:i], k.queue[i+1:]...)
				return true
			}
		}
		return false
	}
}

func (k *refKernel) step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := k.queue[0]
	k.queue = k.queue[1:]
	k.clock = ev.at
	ev.fn()
	return true
}

func (k *refKernel) runUntil(deadline Time) {
	for len(k.queue) > 0 && k.queue[0].at <= deadline {
		k.step()
	}
	if k.clock < deadline {
		k.clock = deadline
	}
}

func (k *refKernel) pending() int { return len(k.queue) }

// runRandomProgram executes a deterministic mixed workload (periodic
// re-arming timers, random one-shots, cancels from outside and from inside
// events, RunUntil windows) against k and returns the fire trace.
func runRandomProgram(t *testing.T, seed int64, k kernel) []fireRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed * 977))
	var trace []fireRecord
	nextID := 0
	var live []func() bool

	var arm func(id int, d Time)
	arm = func(id int, d Time) {
		live = append(live, k.schedule(d, func() {
			trace = append(trace, fireRecord{at: k.now(), id: id})
			// A third of timers re-arm themselves (watchdog pattern) and a
			// fifth cancel another timer from inside the event, both
			// deterministically from the id so the two kernels agree.
			if id%3 == 0 {
				arm(id, Time(1+id%97))
			}
			if id%5 == 0 {
				live[(id*7)%len(live)]()
			}
		}))
	}

	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			var d Time
			switch rng.Intn(8) {
			case 0:
				d = 0
			case 1, 2, 3:
				d = Time(rng.Int63n(300))
			case 4, 5:
				d = Time(rng.Int63n(70_000))
			default:
				d = Time(rng.Int63n(3_000_000))
			}
			arm(nextID, d)
			nextID++
		}
		// Cancel a few random handles; stale handles are no-ops, so
		// picking from the full history is fine.
		for i := 0; i < rng.Intn(5); i++ {
			if len(live) == 0 {
				break
			}
			live[rng.Intn(len(live))]()
		}
		// Advance a random window; occasionally single-step instead.
		if rng.Intn(4) == 0 {
			k.step()
		} else {
			k.runUntil(k.now() + Time(rng.Int63n(4_000)))
		}
		if rng.Intn(8) == 0 {
			// Stop re-arm chains from keeping the run infinite: drop every
			// pending timer.
			for _, cancel := range live {
				cancel()
			}
			live = live[:0]
		}
	}
	for _, cancel := range live {
		cancel()
	}
	if got := k.pending(); got != 0 {
		t.Fatalf("seed %d: %d timers still pending after cancel sweep", seed, got)
	}
	return trace
}

// TestWheelCancelSemantics pins the cancel edge cases: zero-value
// handles, double cancel, cancel of a collected-but-unpopped (due) entry,
// and handle reuse across generations.
func TestWheelCancelSemantics(t *testing.T) {
	w := NewTimerWheel()
	if w.Cancel(WheelTimer{}) {
		t.Fatal("zero-value handle cancelled something")
	}
	a := w.Schedule(10, 1)
	b := w.Schedule(10, 2)
	c := w.Schedule(10, 3)
	if !w.Cancel(b) {
		t.Fatal("first cancel failed")
	}
	if w.Cancel(b) {
		t.Fatal("double cancel reported success")
	}
	// Peek collects the tick-10 slot into the due buffer; cancelling a
	// due entry must still work and must not break the pop sequence.
	if at, ok := w.nextAt(); !ok || at != 10 {
		t.Fatalf("nextAt = (%d, %v), want (10, true)", at, ok)
	}
	if !w.Cancel(c) {
		t.Fatal("cancel of due entry failed")
	}
	if w.Active(c) {
		t.Fatal("cancelled due entry still active")
	}
	payload, at, ok := w.Pop()
	if !ok || payload != 1 || at != 10 {
		t.Fatalf("Pop = (%d, %d, %v), want (1, 10, true)", payload, at, ok)
	}
	if w.Cancel(a) {
		t.Fatal("cancel of fired entry reported success")
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("wheel should be empty")
	}
	if w.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", w.Len())
	}
	// The freed nodes are reused; stale handles must stay inert.
	d := w.Schedule(20, 4)
	if w.Cancel(a) || w.Cancel(b) || w.Cancel(c) {
		t.Fatal("stale handle cancelled a reused node")
	}
	if !w.Active(d) {
		t.Fatal("fresh handle not active")
	}
}

// TestWheelScheduleBelowHorizon pins the peek-ahead contract: nextAt may
// advance the wheel's horizon past the caller's clock, and a subsequent
// Schedule below the horizon still fires in exact (time, seq) order.
func TestWheelScheduleBelowHorizon(t *testing.T) {
	w := NewTimerWheel()
	w.Schedule(100, 1)
	if at, ok := w.nextAt(); !ok || at != 100 {
		t.Fatalf("nextAt = (%d, %v), want (100, true)", at, ok)
	}
	if w.Now() != 100 {
		t.Fatalf("horizon = %d, want 100 after peek", w.Now())
	}
	// Caller's clock is still < 100; it schedules for t=50 and t=100.
	w.Schedule(50, 2)
	w.Schedule(100, 3)
	wantOrder := []struct {
		payload uint32
		at      Time
	}{{2, 50}, {1, 100}, {3, 100}}
	for i, want := range wantOrder {
		payload, at, ok := w.Pop()
		if !ok || payload != want.payload || at != want.at {
			t.Fatalf("pop %d = (%d, %d, %v), want (%d, %d, true)",
				i, payload, at, ok, want.payload, want.at)
		}
	}
}

// TestWheelHorizonPanic pins the overflow policy: scheduling beyond the
// 2^48-tick horizon panics rather than silently misfiling.
func TestWheelHorizonPanic(t *testing.T) {
	w := NewTimerWheel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected horizon panic")
		}
	}()
	w.Schedule(1<<(wheelSlotBits*wheelLevels), 0)
}

// TestWheelSteadyStateAllocFree pins the wheel's own 0-alloc steady
// state: once the id table, chunk arena and due buffer are warm,
// schedule/cancel/pop cycles allocate nothing — including the sweeps forced
// by a far watchdog that is pushed out every cycle and never reached, one
// tombstone a cycle against a sweep rule of a few hundred.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	w := NewTimerWheel()
	var at Time
	var far WheelTimer
	maxLen := 0
	cycle := func() {
		at += 3
		a := w.Schedule(at+7, 1)
		b := w.Schedule(at+13, 2)
		w.Schedule(at+257, 3) // level-1 insert + later cascade
		w.Cancel(b)
		_ = a
		w.Cancel(far)
		far = w.Schedule(at+1<<20, 4) // level 2
		maxLen = max(maxLen, w.Len())
		for {
			nx, ok := w.nextAt()
			if !ok || nx > at {
				break
			}
			w.Pop()
		}
	}
	// AllocsPerRun rounds its average down, which would hide a sweep that
	// allocates once every few hundred cycles: measure one run of 2000
	// cycles. Its warm-up call fills the id table, chunk arena and due
	// buffer and passes the first sweeps.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			cycle()
		}
	}); n != 0 {
		t.Fatalf("2000 steady-state wheel cycles allocate %v times, want 0", n)
	}
	if _, ids := wheelFootprint(w); ids > 3*maxLen+sweepSlack+1 {
		t.Fatalf("%d ids for at most %d pending entries: 4000 far re-arms were never swept", ids, maxLen)
	}
}

// TestSimulatorWheelAllocFree is alloc_test.go's pin under RunUntil
// windows, whose peeks run the wheel's horizon ahead of the clock: the
// schedule/cancel/run cycle stays 0-alloc, sweeps of a never-reached
// watchdog's tombstones included.
func TestSimulatorWheelAllocFree(t *testing.T) {
	s := New()
	fns := make([]Event, 64)
	for i := range fns {
		fns[i] = func() {}
	}
	i := 0
	var far Timer
	cycle := func() {
		fn := fns[i%len(fns)]
		i++
		tm, err := s.Schedule(Time(i%11), fn)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		if i%5 == 0 {
			tm.Cancel()
		}
		far.Cancel()
		if far, err = s.Schedule(1<<20, fn); err != nil {
			t.Fatalf("schedule: %v", err)
		}
		s.RunUntil(s.Now() + 2)
	}
	// One measured run of 2000 cycles, so that no allocation rounds away;
	// the warm-up call passes the first sweeps, one every ~530 cycles.
	if n := testing.AllocsPerRun(1, func() {
		for j := 0; j < 2000; j++ {
			cycle()
		}
	}); n != 0 {
		t.Fatalf("2000 steady-state simulator cycles allocate %v times, want 0", n)
	}
	if len(s.slots) > 3*8+sweepSlack+1 {
		t.Fatalf("%d callback slots for a handful of pending timers: 3500 far re-arms were never swept", len(s.slots))
	}
}

// TestWheelPopUntilIsPeekThenPop drives two wheels through the same random
// schedule/cancel/drain program, one drained with popUntil and one with the
// nextAt-then-Pop pair it replaces: same entries in the same order, the
// same entries left behind, and the same horizon afterwards — a deadline
// that stops short of the next entry still looks ahead to it.
func TestWheelPopUntilIsPeekThenPop(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		one, two := NewTimerWheel(), NewTimerWheel()
		var pending [][2]WheelTimer
		var now Time
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(4); {
			case op <= 1:
				// Spread over three levels; never below the horizon's tick.
				at := max(now, one.Now()) + Time(rng.Intn(3))*Time(rng.Intn(70000)) + Time(rng.Intn(40))
				payload := uint32(step)
				pending = append(pending, [2]WheelTimer{one.Schedule(at, payload), two.Schedule(at, payload)})
			case op == 2 && len(pending) > 0:
				i := rng.Intn(len(pending))
				if one.Cancel(pending[i][0]) != two.Cancel(pending[i][1]) {
					t.Fatalf("seed %d step %d: Cancel disagrees", seed, step)
				}
				pending = append(pending[:i], pending[i+1:]...)
			default:
				now += Time(rng.Intn(300))
				for {
					_, p1, at1, ok1 := one.popUntil(now)
					at2, ok2 := two.nextAt()
					var p2 uint32
					if ok2 = ok2 && at2 <= now; ok2 {
						p2, at2, _ = two.Pop()
					} else {
						at2 = 0
					}
					if p1 != p2 || at1 != at2 || ok1 != ok2 {
						t.Fatalf("seed %d step %d: popUntil(%d) = (%d, %d, %v), nextAt+Pop = (%d, %d, %v)",
							seed, step, now, p1, at1, ok1, p2, at2, ok2)
					}
					if !ok1 {
						break
					}
				}
			}
			if one.Len() != two.Len() || one.Now() != two.Now() {
				t.Fatalf("seed %d step %d: Len %d horizon %d, peek-then-pop twin %d %d",
					seed, step, one.Len(), one.Now(), two.Len(), two.Now())
			}
		}
	}
}
