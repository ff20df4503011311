package fleet

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// timerSet is what a shard asks of its timers: file a word for a tick,
// re-arm or disarm a row's watchdog, and fire a tick's words in order.
type timerSet interface {
	add(at sim.Time, row int32)
	arm(at sim.Time, row int32)
	disarm(row int32)
	drain(t sim.Time, fire func(row int32, watch bool))
	pending() int
}

// ringSet is the calendar under the shard's rule (runUntil, onRound,
// onWatch): a watchdog is the position of its word, a re-arm overwrites
// it, a disarm clears it, and a word that is no longer its row's is
// skipped.
type ringSet struct {
	c     calendar
	watch []int32
}

func (r *ringSet) add(at sim.Time, row int32) { r.c.add(at, kRound<<kindShift|uint32(row)) }
func (r *ringSet) arm(at sim.Time, row int32) {
	r.watch[row] = r.c.add(at, kWatch<<kindShift|uint32(row))
}
func (r *ringSet) disarm(row int32) { r.watch[row] = -1 }
func (r *ringSet) pending() int     { return r.c.queued }
func (r *ringSet) drain(t sim.Time, fire func(int32, bool)) {
	for lr := r.c.take(t); ; {
		first, words := r.c.run(&lr)
		if len(words) == 0 {
			return
		}
		for i, w := range words {
			e := int32(w & idxMask)
			if w>>kindShift == kRound {
				fire(e, false)
			} else if r.watch[e] == first+int32(i) {
				r.watch[e] = -1
				fire(e, true)
			}
		}
	}
}

// refSet is the reference: every entry kept, filed by tick in schedule
// order, a re-arm or disarm cancelling the row's pending watchdog outright.
type refSet struct {
	q      []refEntry
	byTick map[sim.Time][]int // indices into q, in schedule order
	armed  []int              // index in q of the row's pending watchdog, -1 for none
	n      int                // entries not yet drained
}

type refEntry struct {
	row       int32
	watch     bool
	cancelled bool
}

func (r *refSet) add(at sim.Time, row int32) { r.file(at, refEntry{row: row}) }
func (r *refSet) arm(at sim.Time, row int32) {
	r.disarm(row)
	r.armed[row] = len(r.q)
	r.file(at, refEntry{row: row, watch: true})
}
func (r *refSet) file(at sim.Time, e refEntry) {
	r.byTick[at] = append(r.byTick[at], len(r.q))
	r.q = append(r.q, e)
	r.n++
}
func (r *refSet) disarm(row int32) {
	if i := r.armed[row]; i >= 0 {
		r.q[i].cancelled = true
		r.armed[row] = -1
	}
}
func (r *refSet) pending() int { return r.n }
func (r *refSet) drain(t sim.Time, fire func(int32, bool)) {
	due := r.byTick[t]
	delete(r.byTick, t)
	r.n -= len(due)
	for _, i := range due {
		// A fire earlier in the tick may have cancelled this entry.
		if e := r.q[i]; !e.cancelled {
			if e.watch {
				r.armed[e.row] = -1
			}
			fire(e.row, e.watch)
		}
	}
}

// program drives a timer set through a seeded random mix of adds, re-arms
// (often onto the tick the row's watchdog already holds), disarms and tick
// drains, and returns the fired sequence. A fired word feeds back into
// the set the way a round close does — more adds and re-arms while its
// tick drains — chosen from the word alone, so both sets get the same
// feedback as long as they fire the same words.
func program(set timerSet, seed int64, window sim.Time, rows, steps int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	now := sim.Time(0)
	delay := func() sim.Time { return 1 + sim.Time(rng.Intn(int(window)-1)) }
	for step := 0; step < steps; step++ {
		row := int32(rng.Intn(rows))
		switch op := rng.Intn(10); {
		case op < 3:
			set.add(now+delay(), row)
		case op < 6:
			set.arm(now+1+sim.Time(rng.Intn(3)), row)
		case op < 7:
			set.arm(now+delay(), row)
		case op < 8:
			set.disarm(row)
		default:
			now++
			t := now
			set.drain(t, func(e int32, watch bool) {
				log = append(log, fmt.Sprintf("%d:%d:%v", t, e, watch))
				h := sim.Time(e)*7 + t
				if !watch && h%3 != 0 {
					set.arm(t+1+h%(window-1), (e+1)%int32(rows))
					set.add(t+1+(h/3)%(window-1), e)
				}
			})
		}
	}
	for ; set.pending() > 0 && now < 1<<20; now++ {
		t := now + 1
		set.drain(t, func(e int32, watch bool) { log = append(log, fmt.Sprintf("%d:%d:%v", t, e, watch)) })
	}
	return log
}

// TestCalendarMatchesSortedReference holds the calendar, under the
// shard's skip rule in place of a cancel, to a reference that cancels
// for real and fires by (tick, schedule order): the same words fire in the
// same order, including a re-arm onto the very tick an earlier word for
// the row sits at (the earlier one is skipped, the later one fires), and
// a disarm followed by such a re-arm. Rings of 8 and 64 slots with
// hundreds of rows put slots across many chunks and recycle them while
// their own ticks drain.
func TestCalendarMatchesSortedReference(t *testing.T) {
	for _, tc := range []struct {
		window     sim.Time
		rows, step int
	}{{8, 5, 400}, {8, 300, 8000}, {64, 40, 3000}, {64, 1000, 12000}} {
		for seed := int64(1); seed <= 4; seed++ {
			ring := &ringSet{c: newCalendar(tc.window - 1), watch: make([]int32, tc.rows)}
			if got := ring.c.mask + 1; got != tc.window {
				t.Fatalf("newCalendar(%d) has %d slots, want %d", tc.window-1, got, tc.window)
			}
			for i := range ring.watch {
				ring.watch[i] = -1
			}
			ref := &refSet{byTick: map[sim.Time][]int{}, armed: make([]int, tc.rows)}
			for i := range ref.armed {
				ref.armed[i] = -1
			}
			got := program(ring, seed, tc.window, tc.rows, tc.step)
			want := program(ref, seed, tc.window, tc.rows, tc.step)
			if len(got) == 0 || !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("window %d rows %d seed %d: %d words fired, reference %d; first difference at %d",
					tc.window, tc.rows, seed, len(got), len(want), i)
			}
			if ring.c.queued != 0 {
				t.Errorf("window %d rows %d seed %d: %d words left queued", tc.window, tc.rows, seed, ring.c.queued)
			}
		}
	}
}

// TestCalendarWindowGuard drives shard.schedule at the limits of the
// ring's window. Delays 1 and R-1 are filed and fire at their ticks; a
// delay of 0 would land in the slot being drained and a delay of R on the
// same slot one lap early, so both are counted as missed deadlines and
// never fire, R ticks late or otherwise.
func TestCalendarWindowGuard(t *testing.T) {
	s := &shard{cal: newCalendar(62), now: 100}
	r := s.cal.mask + 1
	if r != 64 {
		t.Fatalf("ring of %d slots, want 64", r)
	}
	for _, tc := range []struct {
		delay sim.Time
		ok    bool
	}{{-1, false}, {0, false}, {1, true}, {r - 1, true}, {r, false}, {r + 1, false}} {
		missed := s.missedDeadlines
		pos := s.schedule(s.now+tc.delay, kRound<<kindShift|uint32(tc.delay+1))
		if (pos >= 0) != tc.ok || (s.missedDeadlines > missed) == tc.ok {
			t.Errorf("delay %d: position %d, missed %d -> %d; want filed=%v",
				tc.delay, pos, missed, s.missedDeadlines, tc.ok)
		}
	}
	fired := map[sim.Time]sim.Time{}
	for tick := s.now + 1; tick <= s.now+2*r; tick++ {
		for lr := s.cal.take(tick); ; {
			_, words := s.cal.run(&lr)
			if len(words) == 0 {
				break
			}
			for _, w := range words {
				fired[sim.Time(w&idxMask)-1] = tick - s.now
			}
		}
	}
	if want := map[sim.Time]sim.Time{1: 1, r - 1: r - 1}; !maps.Equal(fired, want) {
		t.Errorf("fired delay -> after ticks %v, want %v", fired, want)
	}
	if s.cal.queued != 0 {
		t.Errorf("%d words left queued", s.cal.queued)
	}
}

// TestCalendarLargestRing runs the largest ring New builds. The longest
// delay is tmax-1 + LinkDelay + ResponderBound, and the latency-bucket cap
// bounds it: with 2·tmin > tmax the coordinator bound is 2·tmax while the
// responder bound is 3·tmax − tmin, which tmax 21844 and tmin 10923 (the
// last accepted row of TestFleetConfigBounds) push to 76453 ticks — a ring
// of 2^17 slots, 1 MiB of headers per shard.
func TestCalendarLargestRing(t *testing.T) {
	f, err := New(Config{Clusters: 1, ClusterSize: 1, Core: core.Config{TMin: 10923, TMax: 21844}})
	if err != nil {
		t.Fatal(err)
	}
	if r := len(f.shards[0].cal.slots); r != 1<<17 {
		t.Errorf("ring of %d slots, want 2^17", r)
	}
	if err := f.RunEpochs(3); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.MissedDeadlines != 0 || st.Beats == 0 || st.Detections != 0 {
		t.Errorf("largest ring: %d missed deadlines, %d beats, %d detections", st.MissedDeadlines, st.Beats, st.Detections)
	}
}
