package sim

// Calendar is Varghese & Lauck's simple timing wheel ("Hashed and
// Hierarchical Timing Wheels", SOSP 1987, scheme 4): a ring of R slots, R
// a power of two, where slot t&(R-1) holds the words due at tick t as an
// append-only log. It serves bounded delays only: its owner keeps every
// word it adds inside a window of R ticks that starts at the tick being
// drained, so no word wraps onto a later lap of its slot. Draining the
// slots in tick order therefore yields words in (tick, add order), with no
// ids, no levels and no sort. Two owners use it: each fleet shard, whose
// delays are all bounded, and the Simulator's TimerWheel, which holds
// anything beyond the window in a small heap until the window reaches it.
//
// There is no cancel. Add returns the word's arena position; an owner that
// needs to cancel either keeps the position of the one word still meant to
// fire and skips the rest when they come up (the fleet), or marks the
// word's id dead and drops it when it is read (TimerWheel).
//
// Logs are chains of chunkWords-word chunks in one arena; word 0 of a
// chunk links to the slot's next chunk. Take detaches a slot's log, so
// words added to the same tick while it is read start a fresh log, read
// after it. A chunk goes back to the free list once it has been read, so
// a drain's own adds reuse it, and neither the steady state nor a
// population collapse allocates once the arena has grown to the working
// set.

import "math/bits"

const (
	// 64 words, 256 bytes: the link word and 63 entries. A tick's slot in
	// a 16k-endpoint fleet shard holds about two thousand words, so a slot
	// is read as a few dozen runs; a simulated cluster keeps a few dozen
	// slots occupied with a word or two each, so its arena stays a few KiB.
	chunkShift = 6
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1
)

// Calendar is the ring; see the comment at the top of this file. Its zero
// value is unusable: build one with NewCalendar.
type Calendar struct {
	mask  Time      // R-1
	slots []slotLog // R headers, 8 bytes each
	// occ has bit i set iff slots[i] holds a log, for next's scan.
	occ    []uint64
	arena  []uint32
	free   int32 // first free chunk, -1 when there is none
	queued int   // words added and not yet read
}

// slotLog is one slot's chunk chain. A chunk is named by the arena
// position of its link word; tail is the position the next word goes to,
// and 0, which no word occupies, marks an empty slot.
type slotLog struct{ head, tail int32 }

// NewCalendar returns an empty calendar whose ring is the smallest power
// of two above maxDelay.
func NewCalendar(maxDelay Time) Calendar {
	r := Time(1)
	for r <= maxDelay {
		r <<= 1
	}
	return Calendar{mask: r - 1, slots: make([]slotLog, r), occ: make([]uint64, (r+63)/64), free: -1}
}

// Size returns R, the number of slots: a word may be added at most R-1
// ticks past the tick being drained.
func (c *Calendar) Size() Time { return c.mask + 1 }

// Queued returns the number of words added and not yet read.
func (c *Calendar) Queued() int { return c.queued }

// Add appends word to tick at's log and returns its arena position. The
// caller keeps at inside the window.
//
//hbvet:noalloc
func (c *Calendar) Add(at Time, word uint32) int32 {
	sl := &c.slots[at&c.mask]
	if sl.tail&chunkMask == 0 { // an empty slot, or its tail chunk is full
		c.extend(sl, at)
	}
	pos := sl.tail
	c.arena[pos] = word
	sl.tail++
	c.queued++
	return pos
}

// extend gives tick at's log, whose header is sl, a new tail chunk. It is
// out of line, so that Add inlines.
//
//hbvet:noalloc
func (c *Calendar) extend(sl *slotLog, at Time) {
	n := c.free
	if n < 0 {
		n = int32(len(c.arena))
		//lint:allow noalloc-closure arena growth, one chunk at a time up to the working set; absent from the steady-state pins
		c.arena = append(c.arena, make([]uint32, chunkWords)...)
	} else {
		c.free = int32(c.arena[n])
	}
	if sl.tail == 0 {
		sl.head = n
		i := at & c.mask
		c.occ[i>>6] |= 1 << (i & 63)
	} else {
		c.arena[sl.tail-chunkWords] = uint32(n)
	}
	sl.tail = n + 1
}

// LogReader walks a detached slot log one chunk at a time.
type LogReader struct {
	next, prev int32 // the chunk to read next and the one last read; -1 for none
	end        int32 // one past the log's last word
}

// Take detaches tick t's log; the slot is empty again at once.
//
//hbvet:noalloc
func (c *Calendar) Take(t Time) LogReader {
	i := t & c.mask
	sl := &c.slots[i]
	r := LogReader{next: -1, prev: -1, end: sl.tail}
	if sl.tail != 0 {
		r.next = sl.head
		c.occ[i>>6] &^= 1 << (i & 63)
	}
	*sl = slotLog{}
	return r
}

// Run returns the next run of r's words, the unread part of one chunk,
// with the arena position of its first word; words is empty once the log
// is exhausted. The chunk of the previous run goes back to the free list
// only now, after its words have been handled: while they are, adds can
// grow the arena but never write into that chunk, and a slice returned
// earlier keeps its words even if growth moved the arena.
//
//hbvet:noalloc
func (c *Calendar) Run(r *LogReader) (first int32, words []uint32) {
	if r.prev >= 0 {
		c.release(r.prev)
		r.prev = -1
	}
	b := r.next
	if b < 0 {
		return 0, nil
	}
	stop := b + chunkWords
	if b == (r.end-1)&^chunkMask {
		stop, r.next = r.end, -1
	} else {
		r.next = int32(c.arena[b])
	}
	r.prev = b
	c.queued -= int(stop - b - 1)
	return b + 1, c.arena[b+1 : stop]
}

// cursor reads a detached slot log one word at a time: pos is the arena
// position of the next word, end one past the last; pos == end once the
// log is exhausted, as in the zero value.
type cursor struct{ pos, end int32 }

// takeCursor is Take for a word-at-a-time reader.
//
//hbvet:noalloc
func (c *Calendar) takeCursor(t Time) cursor {
	r := c.Take(t)
	if r.next < 0 {
		return cursor{}
	}
	return cursor{pos: r.next + 1, end: r.end}
}

// pop returns r's next word; r must not be exhausted. Unlike Run, it
// hands a chunk back to the free list as soon as its last word is read:
// the caller holds the word by value, so adds may reuse the chunk at once.
//
//hbvet:noalloc
func (c *Calendar) pop(r *cursor) uint32 {
	p := r.pos
	word := c.arena[p]
	c.queued--
	switch p++; {
	case p == r.end:
		c.release((p - 1) &^ chunkMask)
		*r = cursor{}
	case p&chunkMask == 0:
		b := p - chunkWords
		r.pos = int32(c.arena[b]) + 1
		c.release(b)
	default:
		r.pos = p
	}
	return word
}

// release puts chunk b on the free list.
//
//hbvet:noalloc
func (c *Calendar) release(b int32) {
	c.arena[b] = uint32(c.free)
	c.free = b
}

// next returns the first tick at or after from, and before from+R, whose
// slot holds a log. The caller keeps every word inside [from, from+R), so
// that tick is the earliest one with words.
//
//hbvet:noalloc
func (c *Calendar) next(from Time) (Time, bool) {
	if c.queued == 0 {
		return 0, false
	}
	start := int(from & c.mask)
	w := start >> 6
	if v := c.occ[w] &^ (1<<(uint(start)&63) - 1); v != 0 {
		return from + Time(w<<6+bits.TrailingZeros64(v)-start), true
	}
	// Wrap round the ring once; the start word's low bits come last.
	for k := 1; k <= len(c.occ); k++ {
		j := (w + k) % len(c.occ)
		if v := c.occ[j]; v != 0 {
			i := j<<6 + bits.TrailingZeros64(v)
			return from + (Time(i-start) & c.mask), true
		}
	}
	return 0, false
}
