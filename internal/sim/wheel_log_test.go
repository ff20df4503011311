package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Same-tick order rests on the far heap's entries for a tick reaching the
// ring before any nearer entry for that tick can be added (wheel.go's
// header). That only bites when one tick receives entries first from
// beyond the ring's window and then from inside it. runWheelProgram drives
// exactly that: a byte program of two-byte ops (kind, argument) scheduling
// onto a handful of fixed ticks and onto stepping stones whose delays put
// the clock R+1, R and R-1 ticks short of a fixed tick (so that the next
// schedule onto it is far, far at the window's very edge, or in the ring),
// interleaved with pops, bounded pops and cancels, against a reference
// that knows only (at, schedule order).
//
// Mutant check, done by hand when the wheel changed: with migrate's loop
// bound moved one tick early (a far entry left in the heap until the tick
// after its window opens), TestWheelMixedOriginOrder fails.

// wheelProgramPeriod spaces repetitions of the fixed ticks: past one set,
// the program schedules onto the next.
const wheelProgramPeriod = 1 << 13

var (
	// Fixed ticks from the start of a period, each with its neighbour.
	wheelProgramTicks = [8]Time{300, 301, 555, 556, 1000, 1001, 4000, 4001}
	// Stepping stones, as delays from the caller's clock: both sides of
	// the window's edge, and a long way out.
	wheelProgramSteps = [8]Time{0, 1, 17, wheelRing - 1, wheelRing, wheelRing + 1, 2 * wheelRing, 3000}
	// Approaches, as ticks before a fixed tick: a stone there leaves the
	// clock that far short of the fixed tick once it pops, so that the
	// next schedule onto the fixed tick is a delay of R+1 or R (the far
	// heap) or R-1 (the ring).
	wheelProgramApproaches = [4]Time{wheelRing + 1, wheelRing, wheelRing - 1, 1}
)

type refEntry struct {
	at      Time
	payload uint32 // schedule order
}

// runWheelProgram runs prog against a fresh wheel and the reference,
// checking every result and Len() after every op.
func runWheelProgram(prog []byte) error {
	w := NewTimerWheel()
	var (
		ref     []refEntry // pending, unordered
		handles []WheelTimer
		clock   Time // the caller's: tick of the last pop
	)
	// refMin returns the index of the next entry to fire.
	refMin := func() int {
		best := 0
		for i, e := range ref {
			if e.at < ref[best].at || (e.at == ref[best].at && e.payload < ref[best].payload) {
				best = i
			}
		}
		return best
	}
	schedule := func(at Time) {
		payload := uint32(len(handles))
		handles = append(handles, w.Schedule(at, payload))
		ref = append(ref, refEntry{at: at, payload: payload})
	}
	for step := 0; step+1 < len(prog); step += 2 {
		kind, arg := prog[step]%16, int(prog[step+1])
		switch {
		case kind < 5: // onto a fixed tick, from wherever the clock is
			schedule(fixedTick(clock, arg))
		case kind < 7: // a stepping stone
			schedule(clock + wheelProgramSteps[arg%len(wheelProgramSteps)])
		case kind < 9: // an approach to a fixed tick
			schedule(max(clock, fixedTick(clock, arg)-wheelProgramApproaches[arg/8%len(wheelProgramApproaches)]))
		case kind < 11: // cancel the k-th handle ever issued, live or stale
			if len(handles) == 0 {
				break
			}
			k := arg * len(handles) / 256
			want := false
			for i, e := range ref {
				if e.payload == uint32(k) {
					ref = append(ref[:i], ref[i+1:]...)
					want = true
					break
				}
			}
			if got := w.Cancel(handles[k]); got != want {
				return fmt.Errorf("step %d: Cancel(handle %d) = %v, reference says %v", step/2, k, got, want)
			}
			if w.Active(handles[k]) {
				return fmt.Errorf("step %d: handle %d active after Cancel", step/2, k)
			}
		case kind < 14: // pop n
			for n := arg%4 + 1; n > 0; n-- {
				payload, at, ok := w.Pop()
				if !ok {
					if len(ref) != 0 {
						return fmt.Errorf("step %d: wheel drained with %d entries in the reference", step/2, len(ref))
					}
					break
				}
				if len(ref) == 0 {
					return fmt.Errorf("step %d: Pop = (%d, %d) from a wheel the reference says is empty", step/2, payload, at)
				}
				i := refMin()
				if want := ref[i]; payload != want.payload || at != want.at {
					return fmt.Errorf("step %d: Pop = (payload %d, at %d), want (%d, %d)", step/2, payload, at, want.payload, want.at)
				}
				ref = append(ref[:i], ref[i+1:]...)
				clock = at
			}
		default: // pop everything due by a deadline at or around the window's edge
			deadline := clock + []Time{0, 1, wheelRing - 1, wheelRing, wheelRing + 1, 4000}[arg%6]
			for {
				id, at, ok := w.popUntil(deadline)
				if due := len(ref) > 0 && ref[refMin()].at <= deadline; ok != due {
					return fmt.Errorf("step %d: popUntil(%d) = %v, reference says %v", step/2, deadline, ok, due)
				}
				if !ok {
					break
				}
				i := refMin()
				if want := ref[i]; w.payloads[id] != want.payload || at != want.at {
					return fmt.Errorf("step %d: popUntil(%d) = (payload %d, at %d), want (%d, %d)",
						step/2, deadline, w.payloads[id], at, want.payload, want.at)
				}
				ref = append(ref[:i], ref[i+1:]...)
				clock = at
			}
			// As RunUntil does, the caller's clock moves to the deadline.
			clock = deadline
		}
		if w.Len() != len(ref) {
			return fmt.Errorf("step %d: Len() = %d, reference holds %d", step/2, w.Len(), len(ref))
		}
		if w.dead > 2*w.count+sweepSlack {
			return fmt.Errorf("step %d: %d tombstones against %d pending entries: the sweep rule is 2*Len()+%d",
				step/2, w.dead, w.count, sweepSlack)
		}
	}
	return nil
}

// fixedTick is the first occurrence, at or after clock, of the fixed tick
// arg selects.
func fixedTick(clock Time, arg int) Time {
	at := clock&^(wheelProgramPeriod-1) + wheelProgramTicks[arg%len(wheelProgramTicks)]
	if at < clock {
		at += wheelProgramPeriod
	}
	return at
}

// randomWheelProgram is the property test's generator and the fuzz
// target's seed corpus.
func randomWheelProgram(seed int64, ops int) []byte {
	prog := make([]byte, 2*ops)
	rand.New(rand.NewSource(seed)).Read(prog)
	return prog
}

func TestWheelMixedOriginOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if err := runWheelProgram(randomWheelProgram(seed, 400)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func FuzzTimerWheel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomWheelProgram(seed, 400))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// The reference is quadratic in the program's length; a mutator
		// that pads the input buys nothing past a few thousand ops.
		if err := runWheelProgram(prog[:min(len(prog), 8192)]); err != nil {
			t.Fatal(err)
		}
	})
}

// wheelFootprint is what a wheel has ever had to allocate: arena, in
// chunks, id-table entries and far-heap entries.
func wheelFootprint(w *TimerWheel) (chunks, ids, far int) {
	return len(w.cal.arena) >> chunkShift, len(w.state), cap(w.far)
}

// TestWheelMemoryFollowsLivePopulation pins the memory bound for the two
// patterns in which the clock never reaches the cancelled words by itself,
// so that only the sweep stands between the wheel and unbounded growth: a
// set of watchdogs re-armed under a frozen clock (bench's sim.*_rearm_ns
// probes), and one far timer pushed out on every tick of a running clock.
// Ids — and with them the Simulator's callback slots — stay below
// 3*live + sweepSlack + 1 (the live entries, the tombstones the sweep rule
// tolerates, the cancel that triggers it); the arena below a chunk per
// slot the pattern can occupy, plus a chunk per 63 ids, plus the spares a
// sweep takes while it rewrites a slot; the far heap below the id count,
// plus its append slack.
func TestWheelMemoryFollowsLivePopulation(t *testing.T) {
	check := func(t *testing.T, s *Simulator, live, slots int) {
		t.Helper()
		chunks, ids, far := wheelFootprint(&s.wheel)
		maxIDs := 3*live + sweepSlack + 1
		if ids > maxIDs || len(s.fns) != ids {
			t.Errorf("%d ids and %d callback slots for %d live timers, want at most %d", ids, len(s.fns), live, maxIDs)
		}
		if maxChunks := slots + maxIDs/(chunkWords-1) + 2; chunks > maxChunks {
			t.Errorf("%d chunks of arena for %d live timers over %d slots, want at most %d", chunks, live, slots, maxChunks)
		}
		if far > 2*maxIDs {
			t.Errorf("far heap of capacity %d for %d live timers, want at most %d", far, live, 2*maxIDs)
		}
		if s.Pending() != live {
			t.Errorf("Pending() = %d, want %d", s.Pending(), live)
		}
	}

	t.Run("frozen clock", func(t *testing.T) {
		s := New()
		nop := Event(func() {})
		var timers [64]Timer
		for i := range timers {
			timers[i] = mustSchedule(t, s, Time(1+i), nop)
		}
		for i := 0; i < 1_000_000; i++ {
			k := i % len(timers)
			if !timers[k].Cancel() {
				t.Fatalf("re-arm %d: timer %d was not pending", i, k)
			}
			timers[k] = mustSchedule(t, s, Time(1+(i*7)%64), nop)
		}
		check(t, s, len(timers), 64)
	})

	t.Run("far timer, running clock", func(t *testing.T) {
		s := New()
		nop := Event(func() {})
		far := mustSchedule(t, s, 100_000, nop)
		ticks := 0
		var tick Event
		tick = func() {
			// 100k ticks out is the far heap: the window reaches a cancelled
			// entry 100k ticks after it was cancelled, and by then there are
			// 100k more.
			far.Cancel()
			far = mustSchedule(t, s, 100_000, nop)
			if ticks++; ticks < 1_000_000 {
				mustSchedule(t, s, 1, tick)
			}
		}
		mustSchedule(t, s, 1, tick)
		s.RunUntil(1_000_000)
		// The ticker's word is the ring's only one; the tombstones sit in
		// the heap between sweeps.
		check(t, s, 1, 2)
	})
}

// TestWheelGenerationWrapSkipsZero: an id recycled 2^31 times must not come
// round to the state word 0, which is the zero WheelTimer's — a caller
// that keeps zero handles for "no timer" cancels them routinely.
func TestWheelGenerationWrapSkipsZero(t *testing.T) {
	w := NewTimerWheel()
	w.Schedule(1, 7)
	w.state[0] = 1<<32 - 2 // the last generation
	if _, _, ok := w.Pop(); !ok {
		t.Fatal("Pop found nothing")
	}
	h := w.Schedule(2, 8)
	if h.idx != 0 || h.gen == 0 {
		t.Fatalf("recycled handle = %+v, want id 0 with a non-zero generation", h)
	}
	if w.Cancel(WheelTimer{}) || !w.Active(h) {
		t.Fatal("the zero handle cancelled a live entry")
	}
}
