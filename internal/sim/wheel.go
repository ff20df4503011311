package sim

// Hierarchical timer wheel: the Simulator's event queue. (A fleet shard,
// whose delays are all bounded, runs on the simpler calendar ring in
// internal/fleet instead.)
//
// Schedule and Cancel are O(1) at any population, from a cluster's handful
// of pending timers to tens of thousands: six levels of 256 slots each
// cover a 2^48-tick horizon, a timer lands in the finest level that can
// resolve its delay, and coarser entries cascade down as the clock crosses
// slot boundaries.
//
// A slot is an append-only log, not a list. An entry is one 8-byte word,
//
//	payload<<32 | origin<<29 | id
//
// appended to the slot's tail chunk. Chunks live in one arena, word 0 of
// each linking to the slot's next, and go back to a free list as the slot is
// read; a slot's first chunk is 8 words (a cluster's slot rarely holds more
// than a few entries), the rest 64. A level-0 slot holds a single
// absolute tick (two times mapping to the same slot are >= 256 ticks apart,
// and the farther one cannot reach level 0 before the nearer one fires), so its
// entries need nothing else; at levels >= 1 the tick follows as a second
// word. The heartbeat protocols re-arm a timer on almost every message and
// almost none fires, so the wheel's cost is the cost of Cancel + Schedule,
// and both are sequential here: Schedule writes the next word of a chunk
// it wrote a moment ago, and Cancel never goes near the slot — it sets a
// tombstone bit in state[id] (generation<<1 | cancelled) and leaves the
// word where it is. Whoever reads the word next (pop, nextAt, a cascade, a
// sweep) sees the bit, drops the word and only then recycles the id, so an
// id is never reused while a stale word still names it. Len stays exact
// throughout: Cancel decrements it.
//
// Firing order is exact — (time, schedule order) — without a sequence
// number, by an ordering lemma. origin is the level an entry was first
// filed at. For two entries A, B of the same tick, A scheduled first:
//
//  1. origin(A) >= origin(B). The horizon only advances, so tick - horizon
//     only shrinks, and the level is monotone in that delay.
//  2. If origin(A) == origin(B), A precedes B in whichever slot holds them.
//     Both were appended to the same slot (same level, same tick) in
//     schedule order; A cannot have left it before B arrived, because
//     leaving means its delay resolved to a finer level, and then so would
//     B's later one; and a cascade or sweep reads a slot front to back and
//     files same-tick entries into one destination, preserving their
//     order.
//
// Hence "coarser origin first, log order within an origin" is (time,
// schedule order), and collect restores it with a stable sort on the three
// origin bits — run only when a slot actually mixes origins, which a
// cascade appending old entries behind newer ones is the one way to cause
// (never while every delay resolves at level 0).
//
// Memory follows the live population even if the clock never reaches the
// garbage: once cancelled-but-unread entries outnumber 2*Len() +
// sweepSlack, one sweep rewrites every occupied slot without them, so the
// id table never exceeds 3*Len() + sweepSlack + 1 entries at the largest
// Len() seen, and the arena two words per id plus a partly filled chunk or
// two per occupied slot. The property tests in wheel_test.go and
// wheel_log_test.go pin the order against sorted references (and fail when
// the origin sort is skipped); the memory pins are in wheel_log_test.go,
// the 0-alloc steady state in alloc_test.go.
//
// Like the rest of the kernel, a TimerWheel is single-threaded by design.

import (
	"math"
	"math/bits"
	"slices"
)

const (
	wheelSlotBits = 8
	wheelSlots    = 1 << wheelSlotBits
	wheelSlotMask = wheelSlots - 1
	wheelLevels   = 6
	// wheelHorizon is how far past the horizon an entry may be scheduled.
	wheelHorizon = 1 << (wheelSlotBits * wheelLevels)
)

// Entry word layout.
const (
	wheelIDBits       = 29
	wheelIDMask       = 1<<wheelIDBits - 1
	wheelOriginShift  = wheelIDBits
	wheelOriginMask   = 1<<3 - 1 // wheelLevels <= 8
	wheelPayloadShift = 32
)

const (
	// A full-size chunk is 64 words, 512 bytes: the link word and 63
	// entries. A slot is read as runs of one chunk, and each occupied slot
	// wastes half a tail chunk on average, so the size trades run length
	// against arena slack. The size was measured on a workload of
	// thousands of entries per slot that no longer runs on the wheel (see
	// EXPERIMENTS.md); with the Simulator's handful per slot it awaits a
	// re-measurement on bench's sim_cluster and sim_campaign.
	chunkShift = 6
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1

	// A slot's first chunk is 8 words, one cache line: the link word and 7
	// entries. A cluster's simulator keeps 9-16 slots occupied with an entry
	// or two each, and a campaign builds a simulator per trial: with a
	// full-size chunk per slot (and all six levels' slot headers allocated
	// up front) a rack-loss campaign trial allocated 77 KB against the
	// list-based wheel's 56 KB, and bench's sim_campaign read 3597 -> 3414
	// trials/s, losing 5 pairs of 5; with the small first chunk (and levels
	// allocated on first use) the trial allocates 57 KB and sim_campaign
	// reads level, 2952 vs 2967, 3 pairs of 6.
	smallShift = 3
	smallWords = 1 << smallShift
	smallMask  = smallWords - 1

	// sweepSlack is the constant in the sweep rule dead > 2*Len() +
	// sweepSlack (Cancel). The factor bounds the garbage by the live
	// population and makes a sweep, which reads every word live or dead,
	// cost at most 1.5 reads per cancel since the last one; the constant
	// spreads a sweep's fixed cost (the bitmap scan, a detach and a chunk
	// per occupied slot) over enough cancels when few timers are live. A
	// steady state that re-arms each timer about once before it would fire
	// holds half to one tombstone per pending timer and never sweeps. A
	// watchdog set re-armed under a frozen clock — bench's
	// sim.wheel_rearm_ns / sim.heap_rearm_ns probes, 64 timers — does; its
	// cost per re-arm, raw wheel / Simulator, best of 4 in each of three
	// interleaved rounds: slack 0, 27-37 / 31-42 ns; 64, 22-28 / 27-34;
	// 256, 19-25 / 23-29; 512, 21-23 / 22-29; 1024, 21-22 / 22-27; no sweep
	// at all, 64-70 / 111-141 and growing with the run; the list-based
	// wheel, 22-27 / 29-33. The curve is flat from 512, which caps an idle
	// simulator's garbage at 16 KiB.
	sweepSlack = 512
)

// WheelTimer is a value handle to a scheduled wheel entry. The zero value
// is inert: gen is the id's state word while the entry is pending, and a
// state word is never 0.
type WheelTimer struct {
	idx int32
	gen uint32
}

// slotLog is one slot's chunk chain: a small first chunk, then full-size
// ones. A chunk is named by the arena position of its link word. tail is
// the position the next word goes to; chunkEnd(tail, head) means "no room",
// which the zero value, the empty slot, also satisfies.
type slotLog struct {
	head int32 // the first chunk
	tail int32
}

// chunkEnd reports whether pos, one past a word of a log whose first chunk
// is head, is the end of that word's chunk. Chunks are aligned to their
// size, and the chunk a small one was cut from is never used whole, so a
// small-chunk boundary inside a full-size chunk cannot be head's.
func chunkEnd(pos, head int32) bool {
	return pos&smallMask == 0 && (pos&chunkMask == 0 || pos-smallWords == head)
}

// dueEntry is a collected entry waiting to be popped.
type dueEntry struct {
	word uint64
	at   Time
}

// TimerWheel is a hierarchical timing wheel ordering (payload, time)
// entries by time, then by schedule order.
type TimerWheel struct {
	now   Time // horizon: every entry still in a slot fires at or after now
	count int  // pending entries
	dead  int  // cancelled entries whose word has not been read yet
	// state[id] is generation<<1 | cancelled. The generation moves on when
	// the id is recycled, which invalidates outstanding handles.
	state []uint32
	free  []int32 // recycled ids
	// words is the chunk arena. It grows a full-size chunk at a time; small
	// chunks are cut eight to a full-size one and stay small.
	words                []uint64
	freeChunk, freeSmall int32 // heads of the free lists, -1 when empty
	// slots[l] is allocated when level l is first filed into: a cluster's
	// simulator uses two levels.
	slots [wheelLevels]*[wheelSlots]slotLog
	// occ mirrors slots: bit s of occ[l] is set iff slots[l][s] holds a
	// word, cancelled or not. refill uses it to jump straight to the next
	// occupied slot instead of walking empty windows one by one.
	occ [wheelLevels]slotBitmap
	// due holds the collected entries of the current horizon tick in
	// schedule order; dueCursor is the read position. Entries scheduled
	// below an already-advanced horizon (only possible between a peek and
	// its pops) are merge-inserted here.
	due       []dueEntry
	dueCursor int
}

// NewTimerWheel returns an empty wheel at time 0.
func NewTimerWheel() *TimerWheel {
	return &TimerWheel{freeChunk: -1, freeSmall: -1}
}

// Now returns the wheel's horizon: the tick of the entries most recently
// collected for firing. It trails the caller's logical clock between
// events and can run ahead of it after a nextAt peek.
func (w *TimerWheel) Now() Time { return w.now }

// Schedule adds an entry firing at absolute time at. Entries at the same
// tick fire in schedule order. Scheduling 2^48 ticks or more ahead of the
// horizon panics; Simulator.ScheduleAt returns ErrHorizon before it gets
// here.
//
//hbvet:noalloc
func (w *TimerWheel) Schedule(at Time, payload uint32) WheelTimer {
	var id int32
	if n := len(w.free); n > 0 {
		id = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		id = w.growIDs()
	}
	w.count++
	word := uint64(payload)<<wheelPayloadShift | uint64(id)
	if at < w.now {
		// The horizon ran ahead of the caller's clock (peek); the entry
		// belongs inside the pending due buffer.
		w.insertDue(word, at)
	} else {
		level := w.levelFor(at)
		w.file(level, word|uint64(level)<<wheelOriginShift, at)
	}
	return WheelTimer{idx: id, gen: w.state[id]}
}

// Cancel removes a pending entry. It reports whether the cancellation
// prevented a pending fire; stale handles are safe no-ops. The entry's
// word stays in its slot as a tombstone until it is read or swept.
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

// Pop removes and returns the next entry in (time, schedule order). The
// horizon advances to the entry's tick.
//
//hbvet:noalloc
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (w *TimerWheel) Pop() (payload uint32, at Time, ok bool) {
	_, payload, at, ok = w.popUntil(math.MaxInt64)
	return payload, at, ok
}

// popUntil is Pop if the next entry fires at or before deadline; otherwise
// the entry stays and ok is false. It is nextAt and Pop in one pass over
// the due buffer, and like nextAt may advance the horizon to an entry it
// leaves behind. It also returns the entry's id, for the Simulator, which
// keys its callbacks by id; the id is already recycled when popUntil
// returns.
//
//hbvet:noalloc
func (w *TimerWheel) popUntil(deadline Time) (id int32, payload uint32, at Time, ok bool) {
	e, ok := w.peek()
	if !ok || e.at > deadline {
		return 0, 0, 0, false
	}
	w.dueCursor++
	id = int32(e.word & wheelIDMask)
	w.recycle(id)
	w.count--
	return id, uint32(e.word >> wheelPayloadShift), e.at, true
}

// nextAt reports the tick of the next pending entry without consuming it.
// Peeking may advance the horizon past the caller's clock; entries
// scheduled in between land in the due buffer in order (see Schedule).
//
//hbvet:noalloc
func (w *TimerWheel) nextAt() (Time, bool) {
	e, ok := w.peek()
	return e.at, ok
}

// peek drops tombstones up to the next pending entry and returns it,
// leaving it at the due cursor.
//
//hbvet:noalloc
func (w *TimerWheel) peek() (dueEntry, bool) {
	for {
		for w.dueCursor < len(w.due) {
			e := w.due[w.dueCursor]
			if !w.reclaim(e.word) {
				return e, true
			}
			w.dueCursor++
		}
		if !w.refill() {
			return dueEntry{}, false
		}
	}
}

// refill advances the horizon to the next non-empty tick and collects its
// entries into the due buffer in schedule order. It reports false when the
// wheel is empty. The occupancy bitmaps let it jump straight to the next
// occupied slot — an empty stretch costs a handful of bitmap scans, not a
// walk over every intervening window. A slot holding only tombstones still
// counts as occupied: the callers skip what it yields and come back.
//
//hbvet:noalloc
func (w *TimerWheel) refill() bool {
	w.due = w.due[:0]
	w.dueCursor = 0
	if w.count == 0 {
		return false
	}
	for {
		if i := w.occ[0].next(int(w.now) & wheelSlotMask); i >= 0 {
			w.now = (w.now &^ Time(wheelSlotMask)) + Time(i)
			w.collect(i)
			return true
		}
		// Level-0 window exhausted. The next entry sits in some occupied
		// slot at a coarser level (or in level 0's next cycle); every
		// occupied slot's start time is a candidate, and no entry can fire
		// before the earliest candidate, so the horizon jumps to that
		// candidate's window and the covering slots cascade down.
		best := Time(1) << (wheelSlotBits * wheelLevels) // beyond the horizon
		for l := 0; l < wheelLevels; l++ {
			shift := uint(wheelSlotBits * l)
			cur := int(w.now>>shift) & wheelSlotMask
			// Same cycle of level l: strictly-later slot index.
			if j := w.occ[l].next(cur + 1); j >= 0 {
				cand := w.now&^(Time(1)<<(shift+wheelSlotBits)-1) | Time(j)<<shift
				if cand < best {
					best = cand
				}
				continue
			}
			// Wrapped: first occupied slot belongs to level l's next cycle.
			if j := w.occ[l].next(0); j >= 0 {
				cand := (w.now>>(shift+wheelSlotBits)+1)<<(shift+wheelSlotBits) | Time(j)<<shift
				if cand < best {
					best = cand
				}
			}
		}
		w.now = best &^ Time(wheelSlotMask)
		w.cascade()
	}
}

// collect drains level-0 slot i — every entry fires at the horizon tick —
// into the due buffer, tombstones included (pop and nextAt drop them), and
// restores schedule order if the slot mixes origin levels. It is the one
// reader that takes a chunk's words as a run: nothing is appended to any
// slot in the meantime.
//
//hbvet:noalloc
func (w *TimerWheel) collect(i int) {
	at := w.now
	var origins uint
	for r := w.detach(0, i); r.pos != r.end; {
		c := chunkBase(r.pos, r.head)
		stop := c + chunkWords
		if c == r.head {
			stop = c + smallWords
		}
		if c < r.end && r.end < stop {
			stop = r.end
		}
		for _, word := range w.words[r.pos:stop] {
			origins |= 1 << (word >> wheelOriginShift & wheelOriginMask)
			w.due = append(w.due, dueEntry{word: word, at: at})
		}
		r.pos = stop
		w.leave(&r, c)
	}
	if origins&(origins-1) != 0 {
		slices.SortStableFunc(w.due, coarserOriginFirst)
	}
}

// coarserOriginFirst orders same-tick entries by the ordering lemma in the
// header comment; the sort calling it is stable.
func coarserOriginFirst(a, b dueEntry) int {
	return int(b.word>>wheelOriginShift&wheelOriginMask) - int(a.word>>wheelOriginShift&wheelOriginMask)
}

// cascade redistributes, for every coarser level, the slot covering the
// new horizon — coarsest first, so level k+1 feeds level k before level k
// feeds level 0. Draining the covering slot unconditionally is safe even
// when its digit didn't change: any future-cycle entries are filed back
// into the same slot (delay still resolves to level k), and refill's
// earliest-candidate jump guarantees every entry in a covering slot fires
// at or after the new horizon.
//
//hbvet:noalloc
func (w *TimerWheel) cascade() {
	for l := wheelLevels - 1; l >= 1; l-- {
		if i := int(w.now>>(wheelSlotBits*l)) & wheelSlotMask; w.occ[l].has(i) {
			w.drain(l, i)
		}
	}
}

// drain empties slot (l, i), dropping its tombstones, and files the live
// entries again, front to back, at the level their delay now resolves to:
// the same slot or a finer level's.
//
//hbvet:noalloc
func (w *TimerWheel) drain(l, i int) {
	// A level-0 slot's one tick is the tick congruent to i in the window
	// [now, now+256).
	at := w.now + Time((i-int(w.now))&wheelSlotMask)
	for r := w.detach(l, i); r.pos != r.end; {
		word := w.read(&r)
		if l > 0 {
			at = Time(w.read(&r))
		}
		if !w.reclaim(word) {
			w.file(w.levelFor(at), word, at)
		}
	}
}

// sweep rewrites every occupied slot, and the unread part of the due
// buffer, without the tombstones. Finer levels go first, so nothing a
// drain moves down is read twice. Amortised over the cancels that fed it
// (see sweepSlack) the cost is O(1) per cancel, and it allocates only if
// the chunk free list is empty when the first live word is written back.
//
//hbvet:noalloc
func (w *TimerWheel) sweep() {
	for l := 0; l < wheelLevels; l++ {
		for i := w.occ[l].next(0); i >= 0; i = w.occ[l].next(i + 1) {
			w.drain(l, i)
		}
	}
	kept := w.due[:w.dueCursor]
	for _, e := range w.due[w.dueCursor:] {
		if !w.reclaim(e.word) {
			kept = append(kept, e)
		}
	}
	w.due = kept
}

// reclaim reports whether word is a tombstone, and if so recycles its id:
// the word is being dropped, so nothing names the id any more.
//
//hbvet:noalloc
func (w *TimerWheel) reclaim(word uint64) bool {
	id := int32(word & wheelIDMask)
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
	if id > wheelIDMask {
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

// levelFor returns the finest level that resolves at's delay from the
// horizon.
//
//hbvet:noalloc
func (w *TimerWheel) levelFor(at Time) int {
	d := at - w.now
	level := 0
	for d >= 1<<(wheelSlotBits*(level+1)) {
		level++
		if level == wheelLevels {
			panic("sim: timer wheel horizon exceeded")
		}
	}
	return level
}

// file appends an entry to its slot at the given level.
//
//hbvet:noalloc
func (w *TimerWheel) file(level int, word uint64, at Time) {
	if w.slots[level] == nil {
		//lint:allow noalloc-closure once per level per wheel
		w.slots[level] = new([wheelSlots]slotLog)
	}
	slot := int(at>>(wheelSlotBits*level)) & wheelSlotMask
	w.appendWord(level, slot, word)
	if level > 0 {
		w.appendWord(level, slot, uint64(at))
	}
}

//hbvet:noalloc
func (w *TimerWheel) appendWord(level, slot int, word uint64) {
	sl := &w.slots[level][slot]
	if chunkEnd(sl.tail, sl.head) {
		w.extend(level, slot)
	}
	w.words[sl.tail] = word
	sl.tail++
}

// extend gives slot (level, slot) a new tail chunk: a small one to start
// with, full-size ones after it.
//
//hbvet:noalloc
func (w *TimerWheel) extend(level, slot int) {
	sl := &w.slots[level][slot]
	if sl.tail == 0 {
		sl.head = w.newSmall()
		sl.tail = sl.head + 1
		w.occ[level].set(slot)
		return
	}
	c := w.newChunk()
	w.words[chunkBase(sl.tail-1, sl.head)] = uint64(c)
	sl.tail = c + 1
}

// chunkBase returns the chunk holding position pos of a log whose first
// chunk is head.
func chunkBase(pos, head int32) int32 {
	if pos&^smallMask == head {
		return head
	}
	return pos &^ chunkMask
}

// emptyChunk is what the arena grows by.
var emptyChunk [chunkWords]uint64

//hbvet:noalloc
func (w *TimerWheel) newChunk() int32 {
	c := w.freeChunk
	if c < 0 {
		c = int32(len(w.words))
		w.words = append(w.words, emptyChunk[:]...)
		return c
	}
	w.freeChunk = int32(w.words[c])
	return c
}

//hbvet:noalloc
func (w *TimerWheel) newSmall() int32 {
	c := w.freeSmall
	if c < 0 {
		// Cut a full-size chunk up; its second eighth is handed out next.
		c = w.newChunk()
		for s := c + chunkWords - smallWords; s > c; s -= smallWords {
			w.words[s] = uint64(w.freeSmall)
			w.freeSmall = s
		}
		return c
	}
	w.freeSmall = int32(w.words[c])
	return c
}

// logReader streams a detached slot log front to back; pos == end when it
// is exhausted.
type logReader struct{ pos, end, head int32 }

// detach empties slot (l, i) and returns a reader over what it held.
//
//hbvet:noalloc
func (w *TimerWheel) detach(l, i int) logReader {
	sl := &w.slots[l][i]
	r := logReader{pos: sl.head + 1, end: sl.tail, head: sl.head}
	*sl = slotLog{}
	w.occ[l].clear(i)
	return r
}

// read returns the log's next word.
//
//hbvet:noalloc
func (w *TimerWheel) read(r *logReader) uint64 {
	word := w.words[r.pos]
	r.pos++
	if r.pos == r.end || chunkEnd(r.pos, r.head) {
		w.leave(r, chunkBase(r.pos-1, r.head))
	}
	return word
}

// leave moves a reader that has read the last word of chunk c on to the
// log's next chunk, if there is one. c goes back to its free list at once,
// so a drain's own appends can reuse it.
//
//hbvet:noalloc
func (w *TimerWheel) leave(r *logReader, c int32) {
	if r.pos != r.end {
		r.pos = int32(w.words[c]) + 1
	}
	if c == r.head {
		w.words[c] = uint64(w.freeSmall)
		w.freeSmall = c
	} else {
		w.words[c] = uint64(w.freeChunk)
		w.freeChunk = c
	}
}

// insertDue merge-inserts an entry into the unread tail of the due buffer.
// It is the latest entry scheduled, so it follows every entry at or before
// its tick.
//
//hbvet:noalloc
func (w *TimerWheel) insertDue(word uint64, at Time) {
	pos := w.dueCursor
	for pos < len(w.due) && w.due[pos].at <= at {
		pos++
	}
	w.due = append(w.due, dueEntry{})
	copy(w.due[pos+1:], w.due[pos:])
	w.due[pos] = dueEntry{word: word, at: at}
}

// slotBitmap tracks which of a level's 256 slots are occupied.
type slotBitmap [wheelSlots / 64]uint64

//hbvet:noalloc
func (b *slotBitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

//hbvet:noalloc
func (b *slotBitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

//hbvet:noalloc
func (b *slotBitmap) has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }

// next returns the smallest occupied slot index >= from, or -1.
//
//hbvet:noalloc
func (b *slotBitmap) next(from int) int {
	if from >= wheelSlots {
		return -1
	}
	word := from >> 6
	if v := b[word] &^ (1<<(uint(from)&63) - 1); v != 0 {
		return word<<6 + bits.TrailingZeros64(v)
	}
	for word++; word < len(b); word++ {
		if v := b[word]; v != 0 {
			return word<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}
