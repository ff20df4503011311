package fleet

// calendar is a shard's timer set: Varghese & Lauck's simple timing wheel
// ("Hashed and Hierarchical Timing Wheels", SOSP 1987, scheme 4). A ring
// of R slots, R a power of two, where slot t&(R-1) holds the words due at
// tick t as an append-only log. It serves bounded delays only: every word
// is added 1..R-1 ticks past the tick being drained (shard.schedule
// counts anything else as a missed deadline and drops it), so no word
// wraps onto a later lap of its slot and no slot is appended to while it
// is read. Draining the slots in tick order therefore fires words in
// (tick, add order), with no ids, no levels and no sort.
//
// There is no cancel either. add returns the word's arena position, and a
// reader that needs to cancel keeps the position of the one word that is
// still meant to fire (shard.watch) and skips the rest when they come up.
//
// Logs are chains of chunkWords-word chunks in one arena; word 0 of a
// chunk links to the slot's next chunk. A chunk goes back to the free list
// once it has been read, so a drain's own adds reuse it, and neither the
// steady state nor a population collapse allocates once the arena has
// grown to the shard's working set.

import "repro/internal/sim"

const (
	// 64 words, 256 bytes: the link word and 63 entries. A tick's slot in
	// a 16k-endpoint shard holds about two thousand words, so a slot is
	// read as a few dozen runs, and each occupied slot wastes half a chunk.
	chunkShift = 6
	chunkWords = 1 << chunkShift
	chunkMask  = chunkWords - 1
)

type calendar struct {
	mask   sim.Time  // R-1
	slots  []slotLog // R headers, 8 bytes each
	arena  []uint32
	free   int32 // first free chunk, -1 when there is none
	queued int   // words added and not yet read
}

// slotLog is one slot's chunk chain. A chunk is named by the arena
// position of its link word; tail is the position the next word goes to,
// and 0, which no word occupies, marks an empty slot.
type slotLog struct{ head, tail int32 }

// newCalendar returns an empty calendar whose ring is the smallest power
// of two above maxDelay.
func newCalendar(maxDelay sim.Time) calendar {
	r := sim.Time(1)
	for r <= maxDelay {
		r <<= 1
	}
	return calendar{mask: r - 1, slots: make([]slotLog, r), free: -1}
}

// add appends word to tick at's log and returns its arena position. The
// caller keeps at inside the window.
//
//hbvet:noalloc
func (c *calendar) add(at sim.Time, word uint32) int32 {
	sl := &c.slots[at&c.mask]
	if sl.tail&chunkMask == 0 { // an empty slot, or its tail chunk is full
		n := c.free
		if n < 0 {
			n = c.grow()
		} else {
			c.free = int32(c.arena[n])
		}
		if sl.tail == 0 {
			sl.head = n
		} else {
			c.arena[sl.tail-chunkWords] = uint32(n)
		}
		sl.tail = n + 1
	}
	pos := sl.tail
	c.arena[pos] = word
	sl.tail++
	c.queued++
	return pos
}

//go:noinline
func (c *calendar) grow() int32 { // out of line: add inlines as a store and a compare
	n := int32(len(c.arena))
	//lint:allow noalloc-closure arena growth, one chunk at a time up to the shard's working set; absent from the steady-state pins
	c.arena = append(c.arena, make([]uint32, chunkWords)...)
	return n
}

// logReader walks a detached slot log one chunk at a time.
type logReader struct {
	next, prev int32 // the chunk to read next and the one last read; -1 for none
	end        int32 // one past the log's last word
}

// take detaches tick t's log; the slot is empty again at once.
//
//hbvet:noalloc
func (c *calendar) take(t sim.Time) logReader {
	sl := &c.slots[t&c.mask]
	r := logReader{next: -1, prev: -1, end: sl.tail}
	if sl.tail != 0 {
		r.next = sl.head
	}
	*sl = slotLog{}
	return r
}

// run returns the next run of r's words, the unread part of one chunk,
// with the arena position of its first word; words is empty once the log
// is exhausted. The chunk of the previous run goes back to the free list
// only now, after its words have been handled: while they are, adds can
// grow the arena but never write into that chunk.
//
//hbvet:noalloc
func (c *calendar) run(r *logReader) (first int32, words []uint32) {
	if r.prev >= 0 {
		c.arena[r.prev] = uint32(c.free)
		c.free = r.prev
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
