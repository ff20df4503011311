// Package ensemble is the vectorized Monte-Carlo engine: a trial is a row
// of struct-of-arrays state, not a simulator. Each trial of a block runs
// to completion one tick at a time — one scan of its row per tick, then
// the tick's events (loss rolls, NextWait acceleration, watchdog expiry,
// crash/suspicion bookkeeping) fire from a preallocated queue with zero
// allocations per step — at 1-2 orders of magnitude more trials per core
// than the event-driven detector/scenario path, which stays on as the
// differential oracle.
//
// # Determinism contract
//
// The engine replays the exact observable behaviour of a
// detector.Cluster driven by scenario.MeasureDetection /
// MeasureReliability / MeasureOverhead: with Exact RNG mode and the same
// per-trial seed (cfg.Seed + trial), every trial produces the same
// per-trial verdict (suspicion tick, non-voluntary inactivation tick,
// message count) as the full simulator. That works because the
// simulator's nondeterminism is fully captured by two artifacts the
// engine reproduces bit-for-bit:
//
//   - RNG draw order. netem.Network draws one Float64 per Send between
//     registered nodes (always) and one Int63n per surviving delivery when
//     MaxDelay > MinDelay; MeasureDetection draws one Int63n of crash
//     jitter after Cluster.Start. Draws happen in event-execution order,
//     so replaying events in the simulator's order replays the stream.
//   - Event order. internal/sim orders by (time, seq) with seq assigned
//     at Schedule time. The engine keeps an explicit (at, seq) pair per
//     pending-event slot — packed into one uint64 key (at<<seqBits | seq)
//     so (time, seq) order is integer order — and assigns seqs from a
//     per-trial counter at the same moments the simulator would call
//     Schedule. Within a tick, events fire in key order; one armed for
//     the running tick has the largest seq yet and so runs last. The
//     §6.1 receive-priority fix (core.Config.Fixed) is a one-shot
//     re-queue of a due timer at the same tick with a fresh seq —
//     exactly the zero-delay hop detector.Node uses.
//
// Pending events per trial are a fixed set of slots, not a queue: one
// round timer, one crash injection, and per member one watchdog, one
// join-resend timer, one inbound p[0]->member delivery and two
// member->p[0] deliveries. The slot counts are sufficient because
// validation requires MaxDelay < TMin: consecutive sends on any link are
// at least TMin apart, so at most one beat (plus, for joiners, one
// solicitation) is in flight per direction.
package ensemble

import (
	"errors"

	"repro/internal/core"
)

// Per-trial flag bits (tflags).
const (
	tfCoordInactive uint8 = 1 << iota // p[0] suspected someone and stopped
	tfRoundHop                        // round timer took its §6.1 hop
)

// Per-member flag bits (mflags).
const (
	mfKnown     uint8 = 1 << iota // coordinator counts this member
	mfJoined                      // participant saw p[0]'s acknowledgement
	mfRcvd                        // beat received this round (coordinator view)
	mfCrashed                     // member crashed (voluntary inactivation)
	mfInactive                    // member self-inactivated (watchdog)
	mfWatchHop                    // watchdog took its §6.1 hop
	mfResendHop                   // join-resend timer took its §6.1 hop
)

// Event kinds the binary kernel selects between.
const (
	kRound uint8 = iota
	kWatch
	kDown
	kUp0
	kUp1
)

// inert marks an unset per-trial tick (crash, suspicion, failure).
const inert = int64(-1)

// Event-slot keys pack (at, seq) into one uint64 — uint64(at)<<seqBits |
// seq — so (time, seq) order is plain integer order and a tick's earliest
// event is a single-word min-scan. seqBits leaves 42 bits of tick range; validation
// caps ticks at maxTick and nextSeq stops the run before a seq can wrap
// into the tick field.
const (
	seqBits  = 22
	seqMask  = uint64(1)<<seqBits - 1
	maxTick  = int64(1) << 40
	inertKey = ^uint64(0) // empty slot: loses every min-scan
)

// evkey packs an (at, seq) pair into its order-preserving key.
func evkey(at int64, seq uint64) uint64 {
	return uint64(at)<<seqBits | seq
}

// Per-member slot offsets inside a trial's contiguous key row. A row is
// [round, then 5 slots per member]: runTrial scans it as one
// cache-friendly streaming min over stride = 1 + 5n words per tick.
const (
	sWatch = iota
	sResend
	sDown
	sUp0
	sUp1
	slotsPerMember
)

// qent is one tick-queue entry: a key slot of the trial's row and the key
// it held when queued.
type qent struct {
	key  uint64
	slot int
}

// engine holds one worker's struct-of-arrays trial block. All slices are
// sized once at construction and reused across blocks; the step path
// performs no allocations.
type engine struct {
	// protocol constants, resolved from Config
	cc        core.Config
	joining   bool // expanding/dynamic membership
	fixed     bool // §6.1 receive priority (core.Fixed)
	n         int  // members per trial
	loss      float64
	minD      int64
	maxD      int64
	horizon   int64
	crashBase int64 // < 0: no crash injection
	jitter    int64
	victim    int // member index of the crash victim
	tmin      int64
	tmax      int64
	respBound int64
	joinBound int64
	exact     bool
	seed      int64

	cap    int // trial capacity
	trials int // active trials this block
	first  int // global index of trial 0 in this block

	// per-trial state
	rng       []rngState
	seqc      []uint64
	tflags    []uint8
	crashDue  []int64 // pending crash injection; inert when absent or consumed
	crashTick []int64 // resolved crash tick (base + jitter); inert when no crash
	sent      []uint64
	rounds    []uint64
	suspectAt []int64
	falseAt   []int64

	// keys holds every pending-event slot as packed (at, seq) keys, one
	// contiguous row of stride words per trial: [round timer, then per
	// member watch/resend/down/up0/up1]. Row-contiguity is what makes
	// the per-tick scan stream a couple of cache lines instead of
	// touching six arrays.
	stride int // 1 + slotsPerMember*n
	keys   []uint64

	// q backs the running trial's tick queue (see trial.collect).
	q []qent

	// per-trial x member state (index t*n + m)
	tm     []int64
	mflags []uint8
}

// newEngine builds a worker engine for up to capacity trials per block.
// cfg must already be validated and defaulted by Run.
func newEngine(cfg Config, capacity int) *engine {
	n := cfg.N
	e := &engine{
		cc:        cfg.Core,
		joining:   cfg.Protocol == ProtocolExpanding || cfg.Protocol == ProtocolDynamic,
		fixed:     cfg.Core.Fixed,
		n:         n,
		loss:      cfg.Link.LossProb,
		minD:      int64(cfg.Link.MinDelay),
		maxD:      int64(cfg.Link.MaxDelay),
		horizon:   int64(cfg.Horizon),
		crashBase: inert,
		jitter:    int64(cfg.CrashJitter),
		victim:    int(cfg.Victim) - 1,
		tmin:      int64(cfg.Core.TMin),
		tmax:      int64(cfg.Core.TMax),
		respBound: int64(cfg.Core.ResponderBound()),
		joinBound: int64(cfg.Core.JoinerBound()),
		exact:     cfg.Exact,
		seed:      cfg.Seed,
		cap:       capacity,

		rng:       make([]rngState, capacity),
		seqc:      make([]uint64, capacity),
		tflags:    make([]uint8, capacity),
		crashDue:  make([]int64, capacity),
		crashTick: make([]int64, capacity),
		sent:      make([]uint64, capacity),
		rounds:    make([]uint64, capacity),
		suspectAt: make([]int64, capacity),
		falseAt:   make([]int64, capacity),

		stride: 1 + slotsPerMember*n,
		keys:   make([]uint64, capacity*(1+slotsPerMember*n)),
		q:      make([]qent, 2*(1+slotsPerMember*n)),

		tm:     make([]int64, capacity*n),
		mflags: make([]uint8, capacity*n),
	}
	if cfg.Victim != 0 {
		e.crashBase = int64(cfg.CrashAt)
	}
	return e
}

// slot returns the index of member m's slot s in a trial's key row; the
// row's word 0 is the coordinator round timer.
//
//hbvet:noalloc
func slot(m, s int) int {
	return 1 + slotsPerMember*m + s
}

// errSeqOverflow reports a trial that needs more events than the seq field
// of the packed key can number. How many a trial schedules depends on N,
// the horizon and every loss roll, so it is found by running, not by
// validation: nextSeq panics with it, and Run recovers it as its error.
var errSeqOverflow = errors.New("ensemble: a trial scheduled more than 4194302 events, the per-trial limit; lower N or Horizon")

// nextSeq advances a trial's seq counter c, mirroring sim.Simulator's
// Schedule-time sequence assignment. A trial that exhausts the seq field of
// the packed key stops the run with errSeqOverflow rather than silently
// corrupting event order.
//
//hbvet:noalloc
func nextSeq(c *uint64) uint64 {
	*c++
	if *c >= seqMask {
		panic(errSeqOverflow)
	}
	return *c
}

// trial is the view one trial runs from, held on the stack of start or
// runTrial: its key row, member flags and waits as sub-slices of the
// engine's arrays, taken once, and its per-trial counters as fields,
// loaded when the view is built (view) and stored back once (store). Slot
// indices are relative to the row and member indices to the trial.
type trial struct {
	e     *engine
	row   []uint64 // the trial's key row
	flags []uint8  // per-member flags
	tm    []int64  // per-member waiting budgets

	// q[:qn] is the running tick's queue, in key order (see collect).
	q  []qent
	qn int

	rng       rngState
	seq       uint64
	sent      uint64
	rounds    uint64
	tflags    uint8
	suspectAt int64
	falseAt   int64
	crashDue  int64
}

// view loads trial t's view.
//
//hbvet:noalloc
func (e *engine) view(t int) trial {
	return trial{
		e:         e,
		row:       e.keys[t*e.stride : (t+1)*e.stride],
		flags:     e.mflags[t*e.n : (t+1)*e.n],
		tm:        e.tm[t*e.n : (t+1)*e.n],
		q:         e.q,
		rng:       e.rng[t],
		seq:       e.seqc[t],
		sent:      e.sent[t],
		rounds:    e.rounds[t],
		tflags:    e.tflags[t],
		suspectAt: e.suspectAt[t],
		falseAt:   e.falseAt[t],
		crashDue:  e.crashDue[t],
	}
}

// store writes v's counters back as trial t's; the sub-slices share the
// engine's arrays and need no copy.
//
//hbvet:noalloc
func (e *engine) store(t int, v *trial) {
	e.rng[t] = v.rng
	e.seqc[t] = v.seq
	e.sent[t] = v.sent
	e.rounds[t] = v.rounds
	e.tflags[t] = v.tflags
	e.suspectAt[t] = v.suspectAt
	e.falseAt[t] = v.falseAt
	e.crashDue[t] = v.crashDue
}

// start initialises trial t of the block and replays its Cluster.Start:
// the coordinator first (round timer, then the revised variant's
// immediate broadcast), then participants in ascending ID order (fixed
// membership arms watchdogs; joining membership sends the first
// solicitation and arms resend + give-up timers), then the
// MeasureDetection crash-jitter draw. Exact RNG mode allocates one
// math/rand source per trial; the fast counter-stream mode allocates
// nothing. It runs on the same view as runTrial and stores it back before
// either kernel runs. Zero-delay sends enqueue as they would inside a
// tick; the trial's first tick collects its row afresh.
func (e *engine) start(t int) {
	v := e.view(t)
	v.rng.init(e.seed, int64(e.first+t), e.exact)
	v.seq, v.sent, v.rounds, v.tflags = 0, 0, 0, 0
	v.suspectAt, v.falseAt, v.crashDue = inert, inert, inert
	e.crashTick[t] = inert
	for p := range v.row {
		v.row[p] = inertKey
	}
	for m := range v.flags {
		v.tm[m] = e.tmax
		if e.joining {
			v.flags[m] = 0
		} else {
			// Fixed members start known with rcvd=true: the first
			// round is a grace round (see core.NewCoordinator).
			v.flags[m] = mfKnown | mfRcvd
		}
	}
	// Coordinator.Start: SetTimer(Round, tmax) first, then the
	// revised variant's immediate broadcast in ascending ID order.
	v.row[0] = evkey(e.tmax, nextSeq(&v.seq))
	if e.cc.Revised && !e.joining {
		for m := 0; m < e.n; m++ {
			v.sendDown(m, 0)
		}
	}
	// Participant/Responder.Start in ascending ID order.
	for m := 0; m < e.n; m++ {
		if e.joining {
			// SendBeat(solicit), SetTimer(JoinResend, tmin),
			// SetTimer(Expiry, JoinerBound) — in that action order.
			v.sendUp(m, 0)
			v.row[slot(m, sResend)] = evkey(e.tmin, nextSeq(&v.seq))
			v.row[slot(m, sWatch)] = evkey(e.joinBound, nextSeq(&v.seq))
		} else {
			v.row[slot(m, sWatch)] = evkey(e.respBound, nextSeq(&v.seq))
		}
	}
	// MeasureDetection resolves the crash tick after Start, before
	// any event runs: one Int63n draw when jitter is configured.
	if e.crashBase >= 0 {
		at := e.crashBase
		if e.jitter > 0 {
			at += v.rng.int63n(e.jitter)
		}
		v.crashDue = at
		e.crashTick[t] = at
	}
	e.store(t, &v)
}

// sendDown rolls one p[0]->member beat: one Float64 loss roll per Send
// (netem's unconditional draw), then a delay draw only when the link
// jitters. A surviving beat occupies the member's single inbound slot.
//
//hbvet:noalloc
func (v *trial) sendDown(m int, now int64) {
	e := v.e
	v.sent++
	if v.rng.float64() < e.loss {
		return
	}
	d := e.minD
	if e.maxD > e.minD {
		d += v.rng.int63n(e.maxD - e.minD + 1)
	}
	i := slot(m, sDown)
	if v.row[i] != inertKey {
		panic("ensemble: down-slot overflow (MaxDelay too large for TMin)")
	}
	v.row[i] = evkey(now+d, nextSeq(&v.seq))
	if d == 0 {
		v.enqueue(i)
	}
}

// sendUp rolls one member->p[0] beat (reply or join solicitation) into a
// free upstream slot.
//
//hbvet:noalloc
func (v *trial) sendUp(m int, now int64) {
	e := v.e
	v.sent++
	if v.rng.float64() < e.loss {
		return
	}
	d := e.minD
	if e.maxD > e.minD {
		d += v.rng.int63n(e.maxD - e.minD + 1)
	}
	i := slot(m, sUp0)
	if v.row[i] != inertKey {
		i++
		if v.row[i] != inertKey {
			panic("ensemble: up-slot overflow (MaxDelay too large for TMin)")
		}
	}
	v.row[i] = evkey(now+d, nextSeq(&v.seq))
	if d == 0 {
		v.enqueue(i)
	}
}

// runBlock runs trials [first, first+count) one at a time, each from its
// Start to the end of its bound: on runTrialBinary for one member with
// neither joins nor §6.1 hops, on the tick kernel runTrial otherwise.
func (e *engine) runBlock(first, count int) {
	if count > e.cap {
		panic("ensemble: block larger than engine capacity")
	}
	e.first = first
	e.trials = count
	binary := e.n == 1 && !e.fixed && !e.joining && !genericOnly
	for t := 0; t < count; t++ {
		e.start(t)
		if binary {
			e.runTrialBinary(t)
		} else {
			e.runTrial(t)
		}
	}
}

// genericOnly routes every trial to runTrial; a variable so that tests can
// hold the binary kernel to the generic one.
var genericOnly bool

// runTrial runs trial t to completion one tick at a time from its view: one
// pass over the row collects the earliest tick's slots in key (so seq)
// order into the tick queue, and the queue fires in order. An event armed
// for the running tick — a zero-delay delivery or a §6.1 hop — takes a
// fresh seq, larger than every pending one, so it joins at the tail; a
// queued entry whose slot no longer holds its key was cancelled or
// re-armed and is skipped. This is the simulator's (time, seq) order
// without a per-event scan.
//
// The crash injection behaves as an event with infinite seq at its tick:
// scenario.MeasureDetection runs every event at or before the crash tick
// (even past the horizon), then crashes the victim. So a pending crash
// fires once the queue of its tick has drained, before any later tick.
//
//hbvet:noalloc
func (e *engine) runTrial(t int) {
	v := e.view(t)
	for {
		best := v.collect()
		now := int64(best >> seqBits)
		// A pending crash loses same-tick ties but beats any strictly
		// later tick — and an all-inert row by construction.
		if c := v.crashDue; c != inert && c < now {
			v.crashDue = inert
			v.fireCrash()
			continue
		}
		// Ticks run while they are at or before the bound: the horizon,
		// stretched to the crash tick while a later crash is still pending.
		bound := max(e.horizon, v.crashDue)
		if best == inertKey || now > bound {
			break
		}
		for h := 0; h < v.qn; h++ {
			if q := v.q[h]; v.row[q.slot] == q.key {
				v.fire(q.slot, now)
			}
		}
	}
	e.store(t, &v)
}

// collect fills the tick queue with the row's slots due at the earliest
// pending tick, in key order, in one pass: a slot of that tick is
// insertion-sorted in (rows are nearly in seq order already, since a round
// arms its members' slots in ascending order), and a slot of an earlier
// tick restarts the collection. It returns the queue's first key, inertKey
// when nothing is pending.
//
//hbvet:noalloc
func (v *trial) collect() uint64 {
	q := v.q
	qn := 0
	// [lo, lim) is the key range of the tick being collected; inert keys
	// are never below lim.
	lo, lim := inertKey, inertKey
	for p, k := range v.row {
		if k >= lim {
			continue
		}
		if k < lo {
			lo = k &^ seqMask
			lim = lo + 1<<seqBits
			qn = 0
		}
		j := qn
		for ; j > 0 && q[j-1].key > k; j-- {
			q[j] = q[j-1]
		}
		q[j] = qent{key: k, slot: p}
		qn++
	}
	v.qn = qn
	if qn == 0 {
		return inertKey
	}
	return q[0].key
}

// fire runs the event in slot i of the row at tick now.
//
//hbvet:noalloc
func (v *trial) fire(i int, now int64) {
	if i == 0 {
		if !v.hop(i, &v.tflags, tfRoundHop, now) {
			v.fireRound(now)
		}
		return
	}
	m := (i - 1) / slotsPerMember
	switch (i - 1) % slotsPerMember {
	case sWatch:
		if !v.hop(i, &v.flags[m], mfWatchHop, now) {
			v.fireWatch(m, now)
		}
	case sResend:
		if !v.hop(i, &v.flags[m], mfResendHop, now) {
			v.fireResend(m, now)
		}
	case sDown:
		v.row[i] = inertKey
		v.fireDown(m, now)
	default: // sUp0, sUp1
		v.row[i] = inertKey
		v.fireUp(m)
	}
}

// hop is the §6.1 receive priority (core.Config.Fixed): a due timer first
// yields one zero-delay hop — a fresh seq at the same tick, so it rejoins
// the tick's queue at the tail and same-instant deliveries run first,
// exactly detector.Node's arm/fire split. It reports whether the timer in
// slot i hopped; when it fires instead, its hop bit is cleared.
//
//hbvet:noalloc
func (v *trial) hop(i int, flags *uint8, bit uint8, now int64) bool {
	if !v.e.fixed || *flags&bit != 0 {
		*flags &^= bit
		return false
	}
	*flags |= bit
	v.row[i] = evkey(now, nextSeq(&v.seq))
	v.enqueue(i)
	return true
}

// enqueue appends slot i, just armed for the running tick, to the tail of
// the tick queue. The queue never outgrows 2·stride: a tick collects at
// most one entry per slot and arms at most 1 + 5n more — the round's hop,
// and per member a watchdog hop, a resend hop, one down beat and two up
// beats (a reply and a re-solicitation). One down beat, because
// validation's MaxDelay < TMin lets at most one round's beat arrive per
// tick.
//
//hbvet:noalloc
func (v *trial) enqueue(i int) {
	v.q[v.qn] = qent{key: v.row[i], slot: i}
	v.qn++
}

// runTrialBinary is runTrial specialised for single-member fixed
// membership without the §6.1 hop — the binary/revised/two-phase Q2/Q3
// workloads. The trial's five event slots live in registers for the whole
// trial and are min-scanned per event, which at n=1 beats collecting a
// tick queue; the protocol logic is the same inlined for member 0 (i = t;
// the resend slot stays inert), and the differential tests drive this
// path for every binary variant.
//
//hbvet:noalloc
func (e *engine) runTrialBinary(t int) {
	base := t * e.stride
	round := e.keys[base]
	watch := e.keys[base+1+sWatch]
	down := e.keys[base+1+sDown]
	up0 := e.keys[base+1+sUp0]
	up1 := e.keys[base+1+sUp1]
	crash := e.crashDue[t]

	for {
		best := round
		kind := kRound
		if watch < best {
			best, kind = watch, kWatch
		}
		if down < best {
			best, kind = down, kDown
		}
		if up0 < best {
			best, kind = up0, kUp0
		}
		if up1 < best {
			best, kind = up1, kUp1
		}
		if crash != inert && uint64(crash) < best>>seqBits {
			crash = inert
			if e.mflags[t]&(mfCrashed|mfInactive) == 0 {
				e.mflags[t] |= mfCrashed
				watch = inertKey
			}
			continue
		}
		bound := e.horizon
		if crash != inert && crash > bound {
			bound = crash
		}
		if best == inertKey || int64(best>>seqBits) > bound {
			return
		}
		now := int64(best >> seqBits)
		switch kind {
		case kRound:
			e.rounds[t]++
			tm, ok := e.cc.NextWait(core.Tick(e.tm[t]), e.mflags[t]&mfRcvd != 0)
			e.tm[t] = int64(tm)
			e.mflags[t] &^= mfRcvd
			if !ok {
				e.tflags[t] |= tfCoordInactive
				if e.suspectAt[t] == inert {
					e.suspectAt[t] = now
				}
				if e.falseAt[t] == inert {
					e.falseAt[t] = now
				}
				round = inertKey
				continue
			}
			// sendDown for member 0.
			e.sent[t]++
			r := &e.rng[t]
			if r.float64() >= e.loss {
				d := e.minD
				if e.maxD > e.minD {
					d += r.int63n(e.maxD - e.minD + 1)
				}
				if down != inertKey {
					panic("ensemble: down-slot overflow (MaxDelay too large for TMin)")
				}
				down = evkey(now+d, nextSeq(&e.seqc[t]))
			}
			round = evkey(now+int64(tm), nextSeq(&e.seqc[t]))
		case kWatch:
			watch = inertKey
			if e.mflags[t]&(mfCrashed|mfInactive) == 0 {
				e.mflags[t] |= mfInactive
				if e.falseAt[t] == inert {
					e.falseAt[t] = now
				}
			}
		case kDown:
			down = inertKey
			if e.mflags[t]&(mfCrashed|mfInactive) == 0 {
				// sendUp (reply) for member 0, then the watchdog rearm.
				e.sent[t]++
				r := &e.rng[t]
				if r.float64() >= e.loss {
					d := e.minD
					if e.maxD > e.minD {
						d += r.int63n(e.maxD - e.minD + 1)
					}
					k := evkey(now+d, nextSeq(&e.seqc[t]))
					if up0 == inertKey {
						up0 = k
					} else if up1 == inertKey {
						up1 = k
					} else {
						panic("ensemble: up-slot overflow (MaxDelay too large for TMin)")
					}
				}
				watch = evkey(now+e.respBound, nextSeq(&e.seqc[t]))
			}
		case kUp0, kUp1:
			if kind == kUp0 {
				up0 = inertKey
			} else {
				up1 = inertKey
			}
			if e.tflags[t]&tfCoordInactive == 0 {
				e.mflags[t] |= mfRcvd
				e.tm[t] = e.tmax
			}
		}
	}
}

// fireRound is Coordinator.OnTimer(TimerRound): apply the acceleration
// rule per member in ascending ID order; on any failure suspect and
// inactivate p[0] (round timer not re-armed), otherwise beat every member
// and re-arm with the minimum waiting time.
//
//hbvet:noalloc
func (v *trial) fireRound(now int64) {
	e := v.e
	v.rounds++
	suspected := false
	next := e.tmax // round length with no members: idle at tmax
	for m, f := range v.flags {
		if f&mfKnown == 0 {
			continue
		}
		tm, ok := e.cc.NextWait(core.Tick(v.tm[m]), f&mfRcvd != 0)
		if !ok {
			suspected = true
		}
		v.tm[m] = int64(tm)
		v.flags[m] = f &^ mfRcvd
		if int64(tm) < next {
			next = int64(tm)
		}
	}
	if suspected {
		v.tflags |= tfCoordInactive
		if v.suspectAt == inert {
			v.suspectAt = now
		}
		if v.falseAt == inert {
			v.falseAt = now // Inactivate(voluntary=false) on p[0]
		}
		v.row[0] = inertKey
		return
	}
	for m := range v.flags {
		if v.flags[m]&mfKnown != 0 {
			v.sendDown(m, now)
		}
	}
	v.row[0] = evkey(now+next, nextSeq(&v.seq))
}

// fireDown is the member's OnBeat for a beat from p[0]: reply, push out
// the watchdog, and (first time, joining protocols) leave the join phase.
//
//hbvet:noalloc
func (v *trial) fireDown(m int, now int64) {
	if v.flags[m]&(mfCrashed|mfInactive) != 0 {
		return
	}
	// SendBeat(reply) then SetTimer(Expiry, ResponderBound), in action
	// order; joining first-acknowledgement additionally cancels the
	// resend timer.
	v.sendUp(m, now)
	v.row[slot(m, sWatch)] = evkey(now+v.e.respBound, nextSeq(&v.seq))
	v.flags[m] &^= mfWatchHop
	if v.e.joining && v.flags[m]&mfJoined == 0 {
		v.flags[m] |= mfJoined
		v.row[slot(m, sResend)] = inertKey
	}
}

// fireUp is Coordinator.OnBeat for a member beat: mark received and reset
// its waiting budget; under joining membership an unknown sender is
// admitted silently (it learns from the next broadcast).
//
//hbvet:noalloc
func (v *trial) fireUp(m int) {
	if v.tflags&tfCoordInactive != 0 {
		return
	}
	if v.flags[m]&mfKnown == 0 {
		if !v.e.joining {
			return // fixed membership ignores strangers (unreachable)
		}
		v.flags[m] |= mfKnown
	}
	v.flags[m] |= mfRcvd
	v.tm[m] = v.e.tmax
}

// fireWatch is the member watchdog: Inactivate(voluntary=false), joining
// protocols also cancel the resend timer.
//
//hbvet:noalloc
func (v *trial) fireWatch(m int, now int64) {
	v.row[slot(m, sWatch)] = inertKey
	if v.flags[m]&(mfCrashed|mfInactive) != 0 {
		return
	}
	v.flags[m] |= mfInactive
	v.row[slot(m, sResend)] = inertKey
	if v.falseAt == inert {
		v.falseAt = now
	}
}

// fireResend is Participant.OnTimer(TimerJoinResend): re-solicit every
// tmin until acknowledged.
//
//hbvet:noalloc
func (v *trial) fireResend(m int, now int64) {
	if v.flags[m]&(mfCrashed|mfInactive|mfJoined) != 0 {
		v.row[slot(m, sResend)] = inertKey
		return
	}
	v.sendUp(m, now)
	v.row[slot(m, sResend)] = evkey(now+v.e.tmin, nextSeq(&v.seq))
	v.flags[m] &^= mfResendHop
}

// fireCrash applies the victim's crash: cancel its timers and mark it
// crashed (a voluntary inactivation — it never sets falseAt). A victim
// that already self-inactivated is left as is, like Machine.Crash on a
// non-active process.
//
//hbvet:noalloc
func (v *trial) fireCrash() {
	m := v.e.victim
	if v.flags[m]&(mfCrashed|mfInactive) != 0 {
		return
	}
	v.flags[m] |= mfCrashed
	v.row[slot(m, sWatch)] = inertKey
	v.row[slot(m, sResend)] = inertKey
}
