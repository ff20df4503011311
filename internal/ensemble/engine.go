// Package ensemble is the vectorized Monte-Carlo engine: a trial is a row
// of struct-of-arrays state, not a simulator. A block of independent
// trials advances round-by-round in lockstep — loss rolls, NextWait
// acceleration, watchdog expiry and crash/suspicion bookkeeping evaluated
// as tight batch loops with zero allocations per step — at 1-2 orders of
// magnitude more trials per core than the event-driven
// detector/scenario path, which stays on as the differential oracle.
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
//     so selecting the next event is a single-word min-scan — and assigns
//     seqs from a per-trial counter at the same moments the simulator
//     would call Schedule. The §6.1 receive-priority fix
//     (core.Config.Fixed) is a one-shot re-queue of a due timer at the
//     same tick with a fresh seq — exactly the zero-delay hop
//     detector.Node uses.
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
	"repro/internal/core"
)

// Per-trial flag bits (tflags).
const (
	tfCoordInactive uint8 = 1 << iota // p[0] suspected someone and stopped
	tfRoundHop                        // round timer took its §6.1 hop
	tfDone                            // no more events inside the bound
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

// Candidate event kinds returned by pick.
const (
	kNone uint8 = iota
	kRound
	kWatch
	kResend
	kDown
	kUp0
	kUp1
	kCrash
)

// inert marks an unset per-trial tick (crash, suspicion, failure).
const inert = int64(-1)

// Event-slot keys pack (at, seq) into one uint64 — uint64(at)<<seqBits |
// seq — so (time, seq) order is plain integer order and pick is a
// single-word min-scan. seqBits leaves 42 bits of tick range; validation
// caps ticks at maxTick and nextSeq panics before a seq can wrap into
// the tick field.
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
// [round, then 5 slots per member]: pick scans it as one cache-friendly
// streaming min over stride = 1 + 5n words.
const (
	sWatch = iota
	sResend
	sDown
	sUp0
	sUp1
	slotsPerMember
)

// engine holds one worker's struct-of-arrays trial block. All slices are
// sized once at construction and reused across blocks; after the first
// reset the steady-state step path performs no allocations.
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
	live   int

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
	// pick's min-scan stream a couple of cache lines instead of touching
	// six arrays.
	stride int // 1 + slotsPerMember*n
	keys   []uint64

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

		tm:     make([]int64, capacity*n),
		mflags: make([]uint8, capacity*n),
	}
	if cfg.Victim != 0 {
		e.crashBase = int64(cfg.CrashAt)
	}
	return e
}

// nextSeq mirrors sim.Simulator's Schedule-time sequence assignment. A
// trial that exhausts the seq field of the packed key panics rather than
// silently corrupting event order (2^22 events per trial).
//
// slot returns the key index of member m's slot s in trial t's row; the
// row's word 0 is the coordinator round timer.
//
//hbvet:noalloc
func (e *engine) slot(t, m, s int) int {
	return t*e.stride + 1 + slotsPerMember*m + s
}

//hbvet:noalloc
func (e *engine) nextSeq(t int) uint64 {
	e.seqc[t]++
	if e.seqc[t] >= seqMask {
		panic("ensemble: per-trial event sequence overflow")
	}
	return e.seqc[t]
}

// reset initialises trials [first, first+count) and replays each trial's
// Cluster.Start: the coordinator first (round timer, then the revised
// variant's immediate broadcast), then participants in ascending ID order
// (fixed membership arms watchdogs; joining membership sends the first
// solicitation and arms resend + give-up timers), then the
// MeasureDetection crash-jitter draw. Exact RNG mode allocates one
// math/rand source per trial; the fast counter-stream mode allocates
// nothing.
func (e *engine) reset(first, count int) {
	if count > e.cap {
		panic("ensemble: block larger than engine capacity")
	}
	e.first = first
	e.trials = count
	e.live = count
	for t := 0; t < count; t++ {
		e.rng[t].init(e.seed, int64(first+t), e.exact)
		e.seqc[t] = 0
		e.tflags[t] = 0
		e.crashDue[t] = inert
		e.crashTick[t] = inert
		e.sent[t] = 0
		e.rounds[t] = 0
		e.suspectAt[t] = inert
		e.falseAt[t] = inert
		base := t * e.n
		row := e.keys[t*e.stride : (t+1)*e.stride]
		for p := range row {
			row[p] = inertKey
		}
		for m := 0; m < e.n; m++ {
			i := base + m
			e.tm[i] = e.tmax
			if e.joining {
				e.mflags[i] = 0
			} else {
				// Fixed members start known with rcvd=true: the first
				// round is a grace round (see core.NewCoordinator).
				e.mflags[i] = mfKnown | mfRcvd
			}
		}
		// Coordinator.Start: SetTimer(Round, tmax) first, then the
		// revised variant's immediate broadcast in ascending ID order.
		e.keys[t*e.stride] = evkey(e.tmax, e.nextSeq(t))
		if e.cc.Revised && !e.joining {
			for m := 0; m < e.n; m++ {
				e.sendDown(t, m, 0)
			}
		}
		// Participant/Responder.Start in ascending ID order.
		for m := 0; m < e.n; m++ {
			if e.joining {
				// SendBeat(solicit), SetTimer(JoinResend, tmin),
				// SetTimer(Expiry, JoinerBound) — in that action order.
				e.sendUp(t, m, 0)
				e.keys[e.slot(t, m, sResend)] = evkey(e.tmin, e.nextSeq(t))
				e.keys[e.slot(t, m, sWatch)] = evkey(e.joinBound, e.nextSeq(t))
			} else {
				e.keys[e.slot(t, m, sWatch)] = evkey(e.respBound, e.nextSeq(t))
			}
		}
		// MeasureDetection resolves the crash tick after Start, before
		// any event runs: one Int63n draw when jitter is configured.
		if e.crashBase >= 0 {
			at := e.crashBase
			if e.jitter > 0 {
				at += e.rng[t].int63n(e.jitter)
			}
			e.crashDue[t] = at
			e.crashTick[t] = at
		}
	}
}

// sendDown rolls one p[0]->member beat: one Float64 loss roll per Send
// (netem's unconditional draw), then a delay draw only when the link
// jitters. A surviving beat occupies the member's single inbound slot.
//
//hbvet:noalloc
func (e *engine) sendDown(t, m int, now int64) {
	e.sent[t]++
	r := &e.rng[t]
	lost := r.float64() < e.loss
	if lost {
		return
	}
	d := e.minD
	if e.maxD > e.minD {
		d += r.int63n(e.maxD - e.minD + 1)
	}
	i := e.slot(t, m, sDown)
	if e.keys[i] != inertKey {
		panic("ensemble: down-slot overflow (MaxDelay too large for TMin)")
	}
	e.keys[i] = evkey(now+d, e.nextSeq(t))
}

// sendUp rolls one member->p[0] beat (reply or join solicitation) into a
// free upstream slot.
//
//hbvet:noalloc
func (e *engine) sendUp(t, m int, now int64) {
	e.sent[t]++
	r := &e.rng[t]
	lost := r.float64() < e.loss
	if lost {
		return
	}
	d := e.minD
	if e.maxD > e.minD {
		d += r.int63n(e.maxD - e.minD + 1)
	}
	i := e.slot(t, m, sUp0)
	if e.keys[i] != inertKey {
		i++
		if e.keys[i] != inertKey {
			panic("ensemble: up-slot overflow (MaxDelay too large for TMin)")
		}
	}
	e.keys[i] = evkey(now+d, e.nextSeq(t))
}

// pick selects trial t's next event by the simulator's (time, seq) order.
// The crash injection behaves as an event with infinite seq at its tick:
// scenario.MeasureDetection runs every event at or before the crash tick
// (even past the horizon), then crashes the victim.
//
//hbvet:noalloc
func (e *engine) pick(t int) (kind uint8, mem int) {
	row := e.keys[t*e.stride : (t+1)*e.stride]
	best := row[0]
	kind = kRound
	for m := 0; m < e.n; m++ {
		o := 1 + slotsPerMember*m
		if k := row[o+sWatch]; k < best {
			best, kind, mem = k, kWatch, m
		}
		if k := row[o+sResend]; k < best {
			best, kind, mem = k, kResend, m
		}
		if k := row[o+sDown]; k < best {
			best, kind, mem = k, kDown, m
		}
		if k := row[o+sUp0]; k < best {
			best, kind, mem = k, kUp0, m
		}
		if k := row[o+sUp1]; k < best {
			best, kind, mem = k, kUp1, m
		}
	}
	// A pending crash has infinite seq at its tick: it loses same-tick
	// ties but beats any strictly later event — and an all-inert scan
	// (best == inertKey) by construction.
	if c := e.crashDue[t]; c != inert && uint64(c) < best>>seqBits {
		return kCrash, 0
	}
	// Events run while they are at or before the bound: the horizon,
	// stretched to the crash tick while a later crash is still pending.
	bound := e.horizon
	if c := e.crashDue[t]; c != inert && c > bound {
		bound = c
	}
	if best == inertKey || int64(best>>seqBits) > bound {
		return kNone, 0
	}
	return kind, mem
}

// stepTrial advances trial t through one coordinator round: every due
// event in (time, seq) order up to and including the next round-timer
// fire. Returns false when the trial has no further events inside its
// bound.
//
//hbvet:noalloc
func (e *engine) stepTrial(t int) bool {
	for {
		kind, m := e.pick(t)
		switch kind {
		case kNone:
			return false
		case kRound:
			// §6.1 receive priority: a due timer yields one zero-delay
			// hop (fresh seq, same tick) so same-instant deliveries run
			// first — exactly detector.Node's arm/fire split.
			ki := t * e.stride
			if e.fixed && e.tflags[t]&tfRoundHop == 0 {
				e.tflags[t] |= tfRoundHop
				e.keys[ki] = e.keys[ki]&^seqMask | e.nextSeq(t)
				continue
			}
			e.tflags[t] &^= tfRoundHop
			e.fireRound(t, int64(e.keys[ki]>>seqBits))
			return true
		case kWatch:
			i := t*e.n + m
			ki := e.slot(t, m, sWatch)
			if e.fixed && e.mflags[i]&mfWatchHop == 0 {
				e.mflags[i] |= mfWatchHop
				e.keys[ki] = e.keys[ki]&^seqMask | e.nextSeq(t)
				continue
			}
			e.mflags[i] &^= mfWatchHop
			e.fireWatch(t, m, int64(e.keys[ki]>>seqBits))
		case kResend:
			i := t*e.n + m
			ki := e.slot(t, m, sResend)
			if e.fixed && e.mflags[i]&mfResendHop == 0 {
				e.mflags[i] |= mfResendHop
				e.keys[ki] = e.keys[ki]&^seqMask | e.nextSeq(t)
				continue
			}
			e.mflags[i] &^= mfResendHop
			e.fireResend(t, m, int64(e.keys[ki]>>seqBits))
		case kDown:
			ki := e.slot(t, m, sDown)
			at := int64(e.keys[ki] >> seqBits)
			e.keys[ki] = inertKey
			e.fireDown(t, m, at)
		case kUp0:
			ki := e.slot(t, m, sUp0)
			at := int64(e.keys[ki] >> seqBits)
			e.keys[ki] = inertKey
			e.fireUp(t, m, at)
		case kUp1:
			ki := e.slot(t, m, sUp1)
			at := int64(e.keys[ki] >> seqBits)
			e.keys[ki] = inertKey
			e.fireUp(t, m, at)
		case kCrash:
			at := e.crashDue[t]
			e.crashDue[t] = inert
			e.fireCrash(t, at)
		}
	}
}

// stepTrialBinary is stepTrial specialised for single-member fixed
// membership without the §6.1 hop — the binary/revised/two-phase Q2/Q3
// workloads. The trial's event slots live in registers across the whole
// round instead of being re-scanned from memory per event; the protocol
// logic is the same inlined for member 0 (i = t; the resend slot stays
// inert), and the differential tests drive this path for every binary
// variant.
//
//hbvet:noalloc
func (e *engine) stepTrialBinary(t int) bool {
	base := t * e.stride
	round := e.keys[base]
	watch := e.keys[base+1+sWatch]
	down := e.keys[base+1+sDown]
	up0 := e.keys[base+1+sUp0]
	up1 := e.keys[base+1+sUp1]
	crash := e.crashDue[t]
	fired := false

loop:
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
			break loop
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
				fired = true
				break loop
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
				down = evkey(now+d, e.nextSeq(t))
			}
			round = evkey(now+int64(tm), e.nextSeq(t))
			fired = true
			break loop
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
					k := evkey(now+d, e.nextSeq(t))
					if up0 == inertKey {
						up0 = k
					} else if up1 == inertKey {
						up1 = k
					} else {
						panic("ensemble: up-slot overflow (MaxDelay too large for TMin)")
					}
				}
				watch = evkey(now+e.respBound, e.nextSeq(t))
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

	e.keys[base] = round
	e.keys[base+1+sWatch] = watch
	e.keys[base+1+sDown] = down
	e.keys[base+1+sUp0] = up0
	e.keys[base+1+sUp1] = up1
	e.crashDue[t] = crash
	return fired
}

// fireRound is Coordinator.OnTimer(TimerRound): apply the acceleration
// rule per member in ascending ID order; on any failure suspect and
// inactivate p[0] (round timer not re-armed), otherwise beat every member
// and re-arm with the minimum waiting time.
//
//hbvet:noalloc
func (e *engine) fireRound(t int, now int64) {
	e.rounds[t]++
	base := t * e.n
	suspected := false
	next := e.tmax // round length with no members: idle at tmax
	for m := 0; m < e.n; m++ {
		i := base + m
		if e.mflags[i]&mfKnown == 0 {
			continue
		}
		tm, ok := e.cc.NextWait(core.Tick(e.tm[i]), e.mflags[i]&mfRcvd != 0)
		if !ok {
			suspected = true
		}
		e.tm[i] = int64(tm)
		e.mflags[i] &^= mfRcvd
		if int64(tm) < next {
			next = int64(tm)
		}
	}
	if suspected {
		e.tflags[t] |= tfCoordInactive
		if e.suspectAt[t] == inert {
			e.suspectAt[t] = now
		}
		if e.falseAt[t] == inert {
			e.falseAt[t] = now // Inactivate(voluntary=false) on p[0]
		}
		e.keys[t*e.stride] = inertKey
		return
	}
	for m := 0; m < e.n; m++ {
		if e.mflags[base+m]&mfKnown != 0 {
			e.sendDown(t, m, now)
		}
	}
	e.keys[t*e.stride] = evkey(now+next, e.nextSeq(t))
}

// fireDown is the member's OnBeat for a beat from p[0]: reply, push out
// the watchdog, and (first time, joining protocols) leave the join phase.
//
//hbvet:noalloc
func (e *engine) fireDown(t, m int, now int64) {
	i := t*e.n + m
	if e.mflags[i]&(mfCrashed|mfInactive) != 0 {
		return
	}
	// SendBeat(reply) then SetTimer(Expiry, ResponderBound), in action
	// order; joining first-acknowledgement additionally cancels the
	// resend timer.
	e.sendUp(t, m, now)
	e.keys[e.slot(t, m, sWatch)] = evkey(now+e.respBound, e.nextSeq(t))
	e.mflags[i] &^= mfWatchHop
	if e.joining && e.mflags[i]&mfJoined == 0 {
		e.mflags[i] |= mfJoined
		e.keys[e.slot(t, m, sResend)] = inertKey
	}
}

// fireUp is Coordinator.OnBeat for a member beat: mark received and reset
// its waiting budget; under joining membership an unknown sender is
// admitted silently (it learns from the next broadcast).
//
//hbvet:noalloc
func (e *engine) fireUp(t, m int, now int64) {
	if e.tflags[t]&tfCoordInactive != 0 {
		return
	}
	i := t*e.n + m
	if e.mflags[i]&mfKnown == 0 {
		if !e.joining {
			return // fixed membership ignores strangers (unreachable)
		}
		e.mflags[i] |= mfKnown
	}
	e.mflags[i] |= mfRcvd
	e.tm[i] = e.tmax
}

// fireWatch is the member watchdog: Inactivate(voluntary=false), joining
// protocols also cancel the resend timer.
//
//hbvet:noalloc
func (e *engine) fireWatch(t, m int, now int64) {
	i := t*e.n + m
	e.keys[e.slot(t, m, sWatch)] = inertKey
	if e.mflags[i]&(mfCrashed|mfInactive) != 0 {
		return
	}
	e.mflags[i] |= mfInactive
	e.keys[e.slot(t, m, sResend)] = inertKey
	if e.falseAt[t] == inert {
		e.falseAt[t] = now
	}
}

// fireResend is Participant.OnTimer(TimerJoinResend): re-solicit every
// tmin until acknowledged.
//
//hbvet:noalloc
func (e *engine) fireResend(t, m int, now int64) {
	i := t*e.n + m
	if e.mflags[i]&(mfCrashed|mfInactive) != 0 || e.mflags[i]&mfJoined != 0 {
		e.keys[e.slot(t, m, sResend)] = inertKey
		return
	}
	e.sendUp(t, m, now)
	e.keys[e.slot(t, m, sResend)] = evkey(now+e.tmin, e.nextSeq(t))
	e.mflags[i] &^= mfResendHop
}

// fireCrash applies the victim's crash: cancel its timers and mark it
// crashed (a voluntary inactivation — it never sets falseAt). A victim
// that already self-inactivated is left as is, like Machine.Crash on a
// non-active process.
//
//hbvet:noalloc
func (e *engine) fireCrash(t int, now int64) {
	i := t*e.n + e.victim
	if e.mflags[i]&(mfCrashed|mfInactive) != 0 {
		return
	}
	e.mflags[i] |= mfCrashed
	e.keys[e.slot(t, e.victim, sWatch)] = inertKey
	e.keys[e.slot(t, e.victim, sResend)] = inertKey
}

// stepRound is the lockstep batch step: every live trial advances one
// coordinator round (tight loops over the SoA rows, no allocations).
// Returns false once every trial in the block has run out of events.
//
//hbvet:noalloc
func (e *engine) stepRound() bool {
	if e.live == 0 {
		return false
	}
	live := 0
	fast := e.n == 1 && !e.fixed && !e.joining
	for t := 0; t < e.trials; t++ {
		if e.tflags[t]&tfDone != 0 {
			continue
		}
		var more bool
		if fast {
			more = e.stepTrialBinary(t)
		} else {
			more = e.stepTrial(t)
		}
		if !more {
			e.tflags[t] |= tfDone
			continue
		}
		live++
	}
	e.live = live
	return live > 0
}
