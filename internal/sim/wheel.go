package sim

// TimerWheel is the Simulator's event queue: a Calendar ring (calendar.go)
// for the entries due inside its window, and a small heap for the few that
// are due beyond it — fault-schedule and supervisor events, a timer armed
// far ahead. The heartbeat protocols re-arm a timer on almost every message
// and almost none fires, so the queue's cost is the cost of Cancel +
// Schedule, and both are a handful of stores here: Schedule appends the
// entry's id to its tick's slot log, and Cancel never goes near the slot
// — it sets a tombstone bit in state[id] (generation<<1 | cancelled) and
// leaves the word where it is. Whoever reads the word next (a pop, the
// move into the ring, a sweep) sees the bit, drops the word and only then
// recycles the id, so an id is never reused while a stale word still names
// it. Len stays exact throughout: Cancel decrements it.
//
// Firing order is (time, schedule order). The ring covers the window
// [now, now+R), where now is the tick last popped (or a later one the
// queue jumped to): an entry inside it is appended to its tick's log, an
// entry beyond it goes to the far heap, ordered by (at, seq). Every
// entry of a tick T scheduled while T was beyond the window was scheduled
// before any entry of T scheduled once it was inside, because the window
// only moves forward. So when now advances, the heap's entries that the
// window now covers move into the ring, in heap order, before control
// returns to anyone who could schedule onto their ticks — and each slot
// log still holds its tick's entries in schedule order.
//
// Memory follows the live population even if the clock never reaches the
// garbage: once cancelled-but-unread entries outnumber 2*Len() +
// sweepSlack, one sweep rewrites every occupied slot, and the heap,
// without them, so the id table never exceeds 3*Len() + sweepSlack + 1
// entries at the largest Len() seen. The oracles are in wheel_test.go and
// wheel_log_test.go (sorted references, far-to-ring moves at the window's
// edge, the memory bound), the 0-alloc steady state in alloc_test.go.
//
// Like the rest of the kernel, a TimerWheel is single-threaded by design.

import "math"

const (
	// wheelRing is R, the ring's slot count. Every protocol timer of the
	// simulated clusters (tmax, the responder bound, a link delay) lands
	// inside it; fault schedules and long supervisor waits go to the heap.
	wheelRing = 256

	// sweepSlack is the constant in the sweep rule dead > 2*Len() +
	// sweepSlack (Cancel). The factor bounds the garbage by the live
	// population and makes a sweep, which reads every word live or dead,
	// cost at most 1.5 reads per cancel since the last one; the constant
	// spreads a sweep's fixed cost over enough cancels when few timers are
	// live. A steady state that re-arms each timer about once before it
	// would fire holds half to one tombstone per pending timer and never
	// sweeps; a watchdog set re-armed under a frozen clock (bench's
	// sim.*_rearm_ns probes) does.
	sweepSlack = 512
)

// WheelTimer is a value handle to a scheduled wheel entry. The zero value
// is inert: gen is the id's state word while the entry is pending, and a
// state word is never 0.
type WheelTimer struct {
	idx int32
	gen uint32
}

// farEntry is an entry due beyond the ring's window.
type farEntry struct {
	at  Time
	seq uint64 // schedule order among far entries
	id  int32
}

// TimerWheel orders (payload, time) entries by time, then by schedule
// order.
type TimerWheel struct {
	cal   Calendar
	now   Time // the ring's base: every word in it is due in [now, now+R)
	count int  // pending entries
	dead  int  // cancelled entries whose word has not been read yet
	// state[id] is generation<<1 | cancelled. The generation moves on when
	// the id is recycled, which invalidates outstanding handles.
	state []uint32
	free  []int32 // recycled ids
	// payloads[id] is what Schedule was given; the Simulator keys its
	// callbacks by id instead and never grows it.
	payloads []uint32
	far      []farEntry // a binary heap by (at, seq)
	farSeq   uint64
	// cur reads tick now's detached log.
	cur cursor
}

// NewTimerWheel returns an empty wheel at time 0.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func NewTimerWheel() *TimerWheel {
	w := newWheel()
	return &w
}

func newWheel() TimerWheel {
	return TimerWheel{cal: NewCalendar(wheelRing - 1)}
}

// Schedule adds an entry firing at absolute time at, which must not be
// before the tick of the last Pop. Entries at the same tick fire in
// schedule order.
//
//hbvet:noalloc
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (w *TimerWheel) Schedule(at Time, payload uint32) WheelTimer {
	if at < w.now {
		panic("sim: TimerWheel.Schedule before the tick last popped")
	}
	id := w.add(at)
	for int(id) >= len(w.payloads) {
		w.payloads = append(w.payloads, 0)
	}
	w.payloads[id] = payload
	return WheelTimer{idx: id, gen: w.state[id]}
}

// add files a new entry at tick at and returns its id. The caller's clock
// is the tick of the last pop, or the deadline of the last popUntil that
// found nothing due, and at is not before it; now never passes that clock
// (see popUntil).
//
//hbvet:noalloc
func (w *TimerWheel) add(at Time) int32 {
	var id int32
	if n := len(w.free); n > 0 {
		id = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		id = w.growIDs()
	}
	w.count++
	if at-w.now < wheelRing {
		w.cal.Add(at, uint32(id))
	} else {
		w.pushFar(farEntry{at: at, seq: w.farSeq, id: id})
		w.farSeq++
	}
	return id
}

// Cancel removes a pending entry. It reports whether the cancellation
// prevented a pending fire; stale handles are safe no-ops. The entry's
// word stays where it is as a tombstone until it is read or swept.
//
//hbvet:noalloc
func (w *TimerWheel) Cancel(t WheelTimer) bool {
	if uint(t.idx) >= uint(len(w.state)) || w.state[t.idx] != t.gen {
		return false
	}
	w.state[t.idx] |= 1
	w.count--
	w.dead++
	if w.dead > 2*w.count+sweepSlack {
		w.sweep()
	}
	return true
}

// Pop removes and returns the next entry in (time, schedule order).
//
//hbvet:noalloc
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (w *TimerWheel) Pop() (payload uint32, at Time, ok bool) {
	id, at, ok := w.popUntil(math.MaxInt64)
	if !ok {
		return 0, 0, false
	}
	return w.payloads[id], at, true
}

// popUntil is Pop if the next entry fires at or before deadline; otherwise
// ok is false and the caller's clock may move to deadline. It returns the
// entry's id, which is already recycled, for the Simulator, which keys its
// callbacks by id.
//
// Reading tombstones can carry now past the caller's clock only up to
// deadline, or on a wheel that then turns out empty, whose window goes
// back to where it was: nothing is left in it.
//
//hbvet:noalloc
func (w *TimerWheel) popUntil(deadline Time) (id int32, at Time, ok bool) {
	if w.now > deadline {
		return 0, 0, false
	}
	start := w.now
	for {
		for w.cur.pos != w.cur.end {
			id := int32(w.cal.pop(&w.cur))
			if !w.reclaim(id) {
				w.recycle(id)
				w.count--
				return id, w.now, true
			}
		}
		// Tick now is read out. The next tick with words may be now
		// itself again, if its own events scheduled onto it.
		t, found := w.cal.next(w.now)
		if !found {
			if !w.dropDeadFar() {
				w.now = start
				return 0, 0, false
			}
			t = w.far[0].at
		}
		if t > deadline {
			return 0, 0, false
		}
		if t != w.now {
			w.now = t
			w.migrate()
		}
		w.cur = w.cal.takeCursor(t)
	}
}

// migrate moves the far entries the window [now, now+R) has reached into
// the ring, in (at, seq) order, dropping tombstones.
//
//hbvet:noalloc
func (w *TimerWheel) migrate() {
	for len(w.far) > 0 && w.far[0].at-w.now < wheelRing {
		e := w.popFar()
		if !w.reclaim(e.id) {
			w.cal.Add(e.at, uint32(e.id))
		}
	}
}

// dropDeadFar pops tombstones off the top of the far heap and reports
// whether a live entry is left on it.
//
//hbvet:noalloc
func (w *TimerWheel) dropDeadFar() bool {
	for len(w.far) > 0 && w.reclaim(w.far[0].id) {
		w.popFar()
	}
	return len(w.far) > 0
}

// sweep rewrites every occupied slot, and the far heap, without the
// tombstones. Amortised over the cancels that fed it (see sweepSlack) the
// cost is O(1) per cancel, and it allocates only if the chunk free list
// is empty when a live word is written back.
//
//hbvet:noalloc
func (w *TimerWheel) sweep() {
	// Tick now first: the unread rest of its log, then whatever its own
	// events have added to it since.
	since, rest := w.cal.takeCursor(w.now), w.cur
	w.cur = cursor{}
	w.refile(w.now, &rest)
	w.refile(w.now, &since)
	base := w.now & w.cal.mask
	for i := Time(0); i <= w.cal.mask; i++ {
		if i != base && w.cal.occ[i>>6]>>(i&63)&1 != 0 {
			t := w.now + ((i - base) & w.cal.mask)
			r := w.cal.takeCursor(t)
			w.refile(t, &r)
		}
	}
	kept := w.far[:0]
	for _, e := range w.far {
		if !w.reclaim(e.id) {
			kept = append(kept, e)
		}
	}
	w.far = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		w.siftDown(i)
	}
}

// refile appends the live words of r to tick t's log.
//
//hbvet:noalloc
func (w *TimerWheel) refile(t Time, r *cursor) {
	for r.pos != r.end {
		if word := w.cal.pop(r); !w.reclaim(int32(word)) {
			w.cal.Add(t, word)
		}
	}
}

// reclaim reports whether id's entry is a tombstone, and if so recycles
// the id: its word is being dropped, so nothing names the id any more.
//
//hbvet:noalloc
func (w *TimerWheel) reclaim(id int32) bool {
	if w.state[id]&1 == 0 {
		return false
	}
	w.recycle(id)
	w.dead--
	return true
}

// recycle returns an id to the free list; the generation bump invalidates
// outstanding handles and clears the tombstone bit. A wrapped generation
// skips 0, the zero handle's.
//
//hbvet:noalloc
func (w *TimerWheel) recycle(id int32) {
	st := w.state[id]&^1 + 2
	if st == 0 {
		st = 2
	}
	w.state[id] = st
	w.free = append(w.free, id)
}

// growIDs extends the id table by one fresh id (generation 1).
func (w *TimerWheel) growIDs() int32 {
	id := len(w.state)
	if id == math.MaxInt32 {
		panic("sim: timer wheel id space exhausted")
	}
	w.state = append(w.state, 2)
	if cap(w.free) < cap(w.state) {
		// Reserve free-list room for every id up front, so recycle stays
		// allocation-free even when the live-timer population later
		// shrinks far below its high-water mark.
		//lint:allow noalloc-closure amortised id-table growth, not steady state
		grown := make([]int32, len(w.free), cap(w.state))
		copy(grown, w.free)
		w.free = grown
	}
	return int32(id)
}

// farLess orders the far heap by (at, seq).
func farLess(a, b farEntry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

//hbvet:noalloc
func (w *TimerWheel) pushFar(e farEntry) {
	w.far = append(w.far, e)
	i := len(w.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(e, w.far[p]) {
			break
		}
		w.far[i] = w.far[p]
		i = p
	}
	w.far[i] = e
}

//hbvet:noalloc
func (w *TimerWheel) popFar() farEntry {
	top := w.far[0]
	last := len(w.far) - 1
	w.far[0] = w.far[last]
	w.far = w.far[:last]
	if last > 0 {
		w.siftDown(0)
	}
	return top
}

//hbvet:noalloc
func (w *TimerWheel) siftDown(i int) {
	e := w.far[i]
	for {
		c := 2*i + 1
		if c >= len(w.far) {
			break
		}
		if c+1 < len(w.far) && farLess(w.far[c+1], w.far[c]) {
			c++
		}
		if !farLess(w.far[c], e) {
			break
		}
		w.far[i] = w.far[c]
		i = c
	}
	w.far[i] = e
}
