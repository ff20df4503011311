package sim

// Hierarchical timer wheel: the Simulator's event queue, and the per-shard
// watchdog queue of internal/fleet.
//
// Schedule and Cancel are O(1) at any population, from a cluster's handful
// of pending timers to a fleet shard's hundreds of thousands: six levels of
// 256 slots each cover a 2^48-tick horizon, a timer lands in the finest
// level that can resolve its delay, and coarser entries cascade down one
// level at a time as the clock crosses slot boundaries.
//
// Firing order is exact — (time, sequence) with FIFO tiebreak among
// same-tick timers. Slot lists are unordered (cascading can interleave old
// and new entries), so when the wheel advances onto a non-empty level-0
// slot it collects the slot into a due buffer and sorts it by sequence
// number; a level-0 slot only ever holds entries of a single absolute tick
// (two times mapping to the same slot are >= 256 ticks apart, and the
// farther one cannot reach level 0 before the nearer one fires), so the
// sort fully restores the global order. The property tests in
// wheel_test.go pin this order against a sorted reference, and
// alloc_test.go pins the 0-alloc steady state.
//
// Like the rest of the kernel, a TimerWheel is single-threaded by design.

import (
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

// wheelNode states, stored in the level field alongside real levels >= 0.
const (
	wheelFree = -1 // on the free list
	wheelDue  = -2 // collected into the due buffer, not yet popped
	wheelDead = -3 // cancelled while due; released when its turn is popped
)

// wheelNode is a pooled timer record. Slot membership is an intrusive
// doubly-linked list over node indices, so Cancel unlinks in O(1).
type wheelNode struct {
	at      Time
	seq     uint64
	payload uint32
	gen     uint32
	next    int32
	prev    int32
	level   int16
	slot    int16
}

// WheelTimer is a value handle to a scheduled wheel entry. The zero value
// is inert (generations start at 1).
type WheelTimer struct {
	idx int32
	gen uint32
}

// TimerWheel is a hierarchical timing wheel ordering (payload, time)
// entries by time, then by schedule order.
type TimerWheel struct {
	now   Time // horizon: every entry still in a slot fires at or after now
	seq   uint64
	count int
	nodes []wheelNode
	free  []int32
	heads [wheelLevels][wheelSlots]int32
	// occ mirrors heads: bit s of occ[l] is set iff heads[l][s] != -1.
	// refill uses it to jump straight to the next occupied slot instead
	// of walking empty windows one by one.
	occ [wheelLevels]slotBitmap
	// due holds the collected entries of the current horizon tick in seq
	// order; dueCursor is the read position. Entries scheduled below an
	// already-advanced horizon (only possible between a peek and its pops)
	// are merge-inserted here.
	due       []int32
	dueCursor int
	seqLess   func(a, b int32) int
}

// NewTimerWheel returns an empty wheel at time 0.
func NewTimerWheel() *TimerWheel {
	w := &TimerWheel{}
	for l := range w.heads {
		for s := range w.heads[l] {
			w.heads[l][s] = -1
		}
	}
	// Built once so the hot-path sort closes over no per-call state.
	w.seqLess = func(a, b int32) int {
		sa, sb := w.nodes[a].seq, w.nodes[b].seq
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		default:
			return 0
		}
	}
	return w
}

// Len returns the number of pending (scheduled, neither fired nor
// cancelled) entries.
func (w *TimerWheel) Len() int { return w.count }

// Now returns the wheel's horizon: the tick of the entries most recently
// collected for firing. It trails the caller's logical clock between
// events and can run ahead of it after a NextAt peek.
func (w *TimerWheel) Now() Time { return w.now }

// Active reports whether the handle's entry is still pending.
func (w *TimerWheel) Active(t WheelTimer) bool {
	if t.idx < 0 || int(t.idx) >= len(w.nodes) {
		return false
	}
	nd := &w.nodes[t.idx]
	return nd.gen == t.gen && nd.level != wheelDead
}

//hbvet:noalloc
// Schedule adds an entry firing at absolute time at. Entries at the same
// tick fire in schedule order. Scheduling 2^48 ticks or more ahead of the
// horizon panics; Simulator.ScheduleAt returns ErrHorizon before it gets
// here, and no fleet timer approaches it.
func (w *TimerWheel) Schedule(at Time, payload uint32) WheelTimer {
	w.seq++
	var idx int32
	if n := len(w.free); n > 0 {
		idx = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		w.nodes = append(w.nodes, wheelNode{gen: 1})
		idx = int32(len(w.nodes) - 1)
		if cap(w.free) < len(w.nodes) {
			// Reserve free-list room for every node up front, so release
			// stays allocation-free even when the live-timer population
			// later shrinks far below its high-water mark.
			//lint:allow noalloc-closure amortised arena growth, not steady state
			grown := make([]int32, len(w.free), cap(w.nodes))
			copy(grown, w.free)
			w.free = grown
		}
	}
	nd := &w.nodes[idx]
	nd.at, nd.seq, nd.payload = at, w.seq, payload
	w.count++
	if at < w.now {
		// The horizon ran ahead of the caller's clock (peek); the entry
		// belongs inside the pending due buffer, ordered by (at, seq).
		w.insertDue(idx)
		return WheelTimer{idx: idx, gen: nd.gen}
	}
	w.insertNode(idx)
	return WheelTimer{idx: idx, gen: nd.gen}
}

//hbvet:noalloc
// Cancel removes a pending entry. It reports whether the cancellation
// prevented a pending fire; stale handles are safe no-ops.
func (w *TimerWheel) Cancel(t WheelTimer) bool {
	if t.idx < 0 || int(t.idx) >= len(w.nodes) {
		return false
	}
	nd := &w.nodes[t.idx]
	if nd.gen != t.gen {
		return false
	}
	switch {
	case nd.level >= 0:
		w.unlink(t.idx)
		w.release(t.idx)
	case nd.level == wheelDue:
		// Still referenced by the due buffer: mark dead, release when the
		// pop loop reaches it (the node must not be reused before then).
		nd.level = wheelDead
	default:
		return false
	}
	w.count--
	return true
}

//hbvet:noalloc
// Pop removes and returns the next entry in (time, schedule order). The
// horizon advances to the entry's tick.
func (w *TimerWheel) Pop() (payload uint32, at Time, ok bool) {
	idx, ok := w.pop()
	if !ok {
		return 0, 0, false
	}
	nd := &w.nodes[idx]
	return nd.payload, nd.at, true
}

//hbvet:noalloc
// pop is Pop by node index, for the Simulator, which keys its callbacks by
// node. The node is already released; its fields stay readable until the
// next Schedule.
func (w *TimerWheel) pop() (idx int32, ok bool) {
	for {
		if w.dueCursor == len(w.due) {
			if !w.refill() {
				return 0, false
			}
		}
		idx = w.due[w.dueCursor]
		w.dueCursor++
		dead := w.nodes[idx].level == wheelDead
		w.release(idx)
		if !dead {
			w.count--
			return idx, true
		}
	}
}

//hbvet:noalloc
// NextAt reports the tick of the next pending entry without consuming it.
// Peeking may advance the horizon past the caller's clock; entries
// scheduled in between land in the due buffer in order (see Schedule).
func (w *TimerWheel) NextAt() (Time, bool) {
	for {
		for w.dueCursor < len(w.due) {
			idx := w.due[w.dueCursor]
			if w.nodes[idx].level == wheelDead {
				w.release(idx)
				w.dueCursor++
				continue
			}
			return w.nodes[idx].at, true
		}
		if !w.refill() {
			return 0, false
		}
	}
}

//hbvet:noalloc
// refill advances the horizon to the next non-empty tick and collects its
// entries into the due buffer in seq order. It reports false when the
// wheel is empty. The occupancy bitmaps let it jump straight to the next
// occupied slot — an empty stretch costs a handful of bitmap scans, not a
// walk over every intervening window.
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

//hbvet:noalloc
// collect drains level-0 slot i (all entries share one absolute tick)
// into the due buffer and restores seq order.
func (w *TimerWheel) collect(i int) {
	head := w.heads[0][i]
	w.heads[0][i] = -1
	w.occ[0].clear(i)
	for head != -1 {
		nd := &w.nodes[head]
		w.due = append(w.due, head)
		head = nd.next
		nd.level = wheelDue
	}
	slices.SortFunc(w.due, w.seqLess)
}

//hbvet:noalloc
// cascade redistributes, for every coarser level, the slot covering the
// new horizon — coarsest first, so level k+1 feeds level k before level k
// feeds level 0. Draining the covering slot unconditionally is safe even
// when its digit didn't change: any future-cycle entries reinsert into
// the same slot (delay still resolves to level k), and refill's
// earliest-candidate jump guarantees every entry in a covering slot fires
// at or after the new horizon.
func (w *TimerWheel) cascade() {
	for l := wheelLevels - 1; l >= 1; l-- {
		idx := int(w.now>>(wheelSlotBits*l)) & wheelSlotMask
		head := w.heads[l][idx]
		if head == -1 {
			continue
		}
		w.heads[l][idx] = -1
		w.occ[l].clear(idx)
		for head != -1 {
			next := w.nodes[head].next
			w.insertNode(head)
			head = next
		}
	}
}

//hbvet:noalloc
// insertNode files a node into the finest level that resolves its delay
// from the horizon. Lists are prepended (order within a slot is
// irrelevant; collect re-sorts by seq).
func (w *TimerWheel) insertNode(idx int32) {
	nd := &w.nodes[idx]
	d := nd.at - w.now
	level := 0
	for d >= 1<<(wheelSlotBits*(level+1)) {
		level++
		if level == wheelLevels {
			panic("sim: timer wheel horizon exceeded")
		}
	}
	slot := int16(nd.at>>(wheelSlotBits*level)) & wheelSlotMask
	nd.level, nd.slot = int16(level), slot
	nd.prev = -1
	nd.next = w.heads[level][slot]
	if nd.next != -1 {
		w.nodes[nd.next].prev = idx
	}
	w.heads[level][slot] = idx
	w.occ[level].set(int(slot))
}

//hbvet:noalloc
// insertDue merge-inserts a node into the unread tail of the due buffer,
// keeping it ordered by (at, seq).
func (w *TimerWheel) insertDue(idx int32) {
	nd := &w.nodes[idx]
	nd.level = wheelDue
	pos := w.dueCursor
	for pos < len(w.due) {
		o := &w.nodes[w.due[pos]]
		if nd.at < o.at || (nd.at == o.at && nd.seq < o.seq) {
			break
		}
		pos++
	}
	w.due = append(w.due, 0)
	copy(w.due[pos+1:], w.due[pos:])
	w.due[pos] = idx
}

//hbvet:noalloc
func (w *TimerWheel) unlink(idx int32) {
	nd := &w.nodes[idx]
	if nd.prev != -1 {
		w.nodes[nd.prev].next = nd.next
	} else {
		w.heads[nd.level][nd.slot] = nd.next
		if nd.next == -1 {
			w.occ[nd.level].clear(int(nd.slot))
		}
	}
	if nd.next != -1 {
		w.nodes[nd.next].prev = nd.prev
	}
}

// slotBitmap tracks which of a level's 256 slots are occupied.
type slotBitmap [wheelSlots / 64]uint64

//hbvet:noalloc
func (b *slotBitmap) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

//hbvet:noalloc
func (b *slotBitmap) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

//hbvet:noalloc
// next returns the smallest occupied slot index >= from, or -1.
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

//hbvet:noalloc
// release recycles a node; the generation bump invalidates outstanding
// handles.
func (w *TimerWheel) release(idx int32) {
	nd := &w.nodes[idx]
	nd.gen++
	nd.level = wheelFree
	w.free = append(w.free, idx)
}
