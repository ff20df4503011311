package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The wheel keeps no sequence number: same-tick order rests on the ordering
// lemma in wheel.go's header, which only bites when one tick receives
// entries first filed at different levels — the same tick scheduled from
// far away, then from closer, then from next door. runWheelProgram drives
// exactly that: a byte program of two-byte ops (kind, argument) scheduling
// onto a handful of fixed ticks — near, a level-1 window away, level 2,
// level 3, and their +1 neighbours — and onto stepping stones that move the
// horizon to arbitrary places in between, interleaved with pops, peeks and
// cancels, against a reference that knows only (at, schedule order).
//
// Mutant check, done by hand when the wheel changed: with collect's origin
// sort removed, TestWheelMixedOriginOrder fails (first at seed 2, step 222)
// and so does TestSimulatorRandomOpsMatchSortedQueue (seed 1, trace[32]).

// wheelProgramPeriod spaces repetitions of the fixed ticks: past one set,
// the program schedules onto the next.
const wheelProgramPeriod = 1 << 25

var (
	// Delays from a horizon at the start of a period: levels 0, 0, 1, 1,
	// 2, 2, 3, 3.
	wheelProgramTicks = [8]Time{200, 201, 3000, 3001, 70_000, 70_001, 20_000_000, 20_000_001}
	// Stepping stones, as delays from the caller's clock: both sides of
	// every level boundary the fixed ticks cross.
	wheelProgramSteps = [16]Time{0, 1, 17, 199, 255, 256, 257, 2800, 4000, 65_535, 65_536, 66_000, 69_800, 1 << 20, 1<<24 - 1, 1 << 24}
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
		case kind < 6: // onto a fixed tick, from wherever the horizon is
			at := clock&^(wheelProgramPeriod-1) + wheelProgramTicks[arg%len(wheelProgramTicks)]
			if at < clock {
				at += wheelProgramPeriod
			}
			schedule(at)
		case kind < 9: // a stepping stone
			schedule(clock + wheelProgramSteps[arg%len(wheelProgramSteps)])
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
		default: // peek
			at, ok := w.nextAt()
			if ok != (len(ref) > 0) || (ok && at != ref[refMin()].at) {
				return fmt.Errorf("step %d: nextAt = (%d, %v) with %d entries in the reference", step/2, at, ok, len(ref))
			}
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
// full-size chunks, and id-table entries.
func wheelFootprint(w *TimerWheel) (chunks, ids int) {
	return len(w.words) >> chunkShift, len(w.state)
}

// TestWheelMemoryFollowsLivePopulation pins the memory bound for the two
// patterns in which the clock never reaches the cancelled words by itself,
// so that only the sweep stands between the wheel and unbounded growth: a
// set of watchdogs re-armed under a frozen clock (bench's sim.heap_rearm_ns
// probe), and one far timer pushed out on every tick of a running clock.
// Ids — and with them the Simulator's callback slots — stay below
// 3*live + sweepSlack + 1 (the live entries, the tombstones the sweep rule
// tolerates, the cancel that triggers it); the arena below, per slot the
// pattern can occupy, a small first chunk (an eighth of a full-size one) and
// a partly filled full-size one, plus two words per id, plus the spare a
// sweep takes.
func TestWheelMemoryFollowsLivePopulation(t *testing.T) {
	check := func(t *testing.T, s *Simulator, live, slots int) {
		t.Helper()
		chunks, ids := wheelFootprint(s.wheel)
		maxIDs := 3*live + sweepSlack + 1
		if ids > maxIDs || len(s.slots) != ids {
			t.Errorf("%d ids and %d callback slots for %d live timers, want at most %d", ids, len(s.slots), live, maxIDs)
		}
		if maxChunks := slots + slots/8 + 2*maxIDs/(chunkWords-1) + 2; chunks > maxChunks {
			t.Errorf("%d full-size chunks of arena for %d live timers over %d slots, want at most %d", chunks, live, slots, maxChunks)
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
			// 100k ticks out is level 2: no cascade reaches the cancelled
			// words for the next 34k ticks, and by then there are 34k more.
			far.Cancel()
			far = mustSchedule(t, s, 100_000, nop)
			if ticks++; ticks < 1_000_000 {
				mustSchedule(t, s, 1, tick)
			}
		}
		mustSchedule(t, s, 1, tick)
		s.RunUntil(1_000_000)
		// Between sweeps the tombstones sit in the one or two level-2 slots
		// 100k ticks ahead; the live far timer and the ticker take a slot
		// or two each on their way down.
		check(t, s, 1, 8)
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
