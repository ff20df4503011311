// Package core implements the accelerated heartbeat protocols of Gouda &
// McGuire (ICDCS 1998) as pure, engine-agnostic state machines.
//
// A machine consumes events — timer expiries, received heartbeats, crash
// injections — and emits actions: beats to send, timers to (re)arm, and
// state changes. Machines never touch clocks or sockets themselves, so the
// same protocol code runs under the discrete-event simulator, the formal
// test harnesses, and the wall-clock runtime in package detector.
//
// # Protocol family
//
//   - Binary (two processes; p[0]'s waiting time halves on each missed
//     reply, resets to tmax on receipt, and p[0] inactivates when it drops
//     below tmin).
//   - Revised binary (McGuire–Gouda 2004): p[0] sends its first beat
//     immediately instead of waiting out a full round first.
//   - Two-phase: on a missed reply, the waiting time drops straight to
//     tmin instead of halving geometrically.
//   - Static: p[0] runs the binary exchange against a fixed set p[1..n]
//     with per-process waiting times; the round length is their minimum.
//   - Expanding: membership grows; joiners solicit p[0] with beats every
//     tmin until acknowledged.
//   - Dynamic: expanding plus voluntary, permanent leave; beats carry a
//     boolean (true = join/stay, false = leave).
//
// The Fixed flag applies the corrections of Atif & Mousavi (§6 of the 2009
// analysis): tightened/corrected inactivation bounds. The companion fix —
// processing deliveries before same-instant timeouts — is a property of the
// execution environment, honoured by the runtimes in this repository when
// Config.Fixed is set.
package core

import (
	"errors"
	"fmt"
)

// Tick is a duration or instant in protocol time units. tmin and tmax are
// expressed in ticks; the physical length of a tick is chosen by the
// runtime that drives the machine.
type Tick int64

// ProcID identifies a protocol participant. The coordinator is always
// process 0, matching the papers' p[0].
type ProcID int

// Coordinator is the well-known ID of p[0].
const CoordinatorID ProcID = 0

// Status is the liveness state of a participant.
type Status int

// Participant statuses. A process starts Active; crash (voluntary
// inactivation) and protocol-forced (non-voluntary) inactivation are
// permanent; Left is the dynamic protocol's graceful exit.
const (
	StatusActive Status = iota + 1
	StatusCrashed
	StatusInactive
	StatusLeft
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusCrashed:
		return "crashed"
	case StatusInactive:
		return "inactive"
	case StatusLeft:
		return "left"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// TimerID names the logical timers a machine may arm. Arming an ID that is
// already pending replaces it. It is a byte so that it shares Action's
// first word with Kind.
type TimerID uint8

// Timer identifiers used by the protocol machines.
const (
	// TimerRound is p[0]'s round timer (period t).
	TimerRound TimerID = iota + 1
	// TimerExpiry is a responder's crash-suspicion watchdog.
	TimerExpiry
	// TimerJoinResend re-triggers a joiner's solicitation every tmin.
	TimerJoinResend
)

// String implements fmt.Stringer.
func (id TimerID) String() string {
	switch id {
	case TimerRound:
		return "round"
	case TimerExpiry:
		return "expiry"
	case TimerJoinResend:
		return "join-resend"
	default:
		return fmt.Sprintf("TimerID(%d)", int(id))
	}
}

// Beat is a heartbeat message. Stay is meaningful only in the dynamic
// protocol (true = join or remain, false = leave); the other protocols
// always send true. Inc is the sender's incarnation number, used by the
// rejoin extension (the analysis' future-work item: processes that may
// join again after leaving): each rejoin bumps the incarnation so that
// stale leave beats from an earlier incarnation cannot evict the new one.
type Beat struct {
	From ProcID
	Stay bool
	// Inc is the sender's incarnation in [0, 127]; 0 for protocols
	// without rejoin.
	Inc uint8
}

// ActionKind discriminates the variants of Action.
type ActionKind uint8

// Action kinds.
const (
	// ActSendBeat requests transmission of a heartbeat (To, Beat).
	ActSendBeat ActionKind = iota + 1
	// ActSetTimer arms (or re-arms) the named timer (ID, Delay).
	ActSetTimer
	// ActCancelTimer disarms the named timer if pending (ID).
	ActCancelTimer
	// ActInactivate reports that the machine stopped participating
	// (Voluntary distinguishes an injected crash from a protocol
	// decision).
	ActInactivate
	// ActJoined reports that an expanding/dynamic participant has been
	// acknowledged by p[0].
	ActJoined
	// ActLeft reports that a dynamic participant completed a graceful
	// leave.
	ActLeft
	// ActSuspect reports that the coordinator's waiting time for Proc
	// decayed below tmin — the protocol's failure signal for that
	// process. In the papers the coordinator reacts by inactivating
	// itself; Suspect additionally exposes which process triggered it,
	// which downstream failure detectors need.
	ActSuspect
	// ActRetune reports that an adaptive coordinator moved its timing
	// constants to a new operating point (TMin, TMax) within its
	// envelope. Runtimes surface it so supervisors can enter degraded
	// mode and conformance checkers can switch model level.
	ActRetune
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActSendBeat:
		return "send-beat"
	case ActSetTimer:
		return "set-timer"
	case ActCancelTimer:
		return "cancel-timer"
	case ActInactivate:
		return "inactivate"
	case ActJoined:
		return "joined"
	case ActLeft:
		return "left"
	case ActSuspect:
		return "suspect"
	case ActRetune:
		return "retune"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one effect requested by a machine; the runtime executes it.
// It is a flat tagged struct rather than an interface: machines emit
// actions on every event, and boxing each one behind an interface costs
// an allocation per action. Which fields are meaningful depends on Kind
// (see the ActionKind constants); the constructor functions SendBeat,
// SetTimer, CancelTimer, Inactivate, Joined, Left, and Suspect build
// well-formed values. The three one-byte fields share the first word, which
// keeps an Action at 64 bytes: appending and ranging over actions copies
// eight words inline (TestActionSize).
type Action struct {
	Kind ActionKind
	// Voluntary accompanies ActInactivate.
	Voluntary bool
	// ID accompanies ActSetTimer and ActCancelTimer; Delay only the
	// former.
	ID    TimerID
	Delay Tick
	// To and Beat accompany ActSendBeat.
	To   ProcID
	Beat Beat
	// Proc accompanies ActSuspect.
	Proc ProcID
	// TMin and TMax accompany ActRetune: the new operating point.
	TMin, TMax Tick
}

// SendBeat requests transmission of b to process to.
func SendBeat(to ProcID, b Beat) Action { return Action{Kind: ActSendBeat, To: to, Beat: b} }

// SetTimer arms (or re-arms) timer id to fire after delay ticks.
func SetTimer(id TimerID, delay Tick) Action {
	return Action{Kind: ActSetTimer, ID: id, Delay: delay}
}

// CancelTimer disarms timer id if pending.
func CancelTimer(id TimerID) Action { return Action{Kind: ActCancelTimer, ID: id} }

// Inactivate reports that the machine has stopped participating.
func Inactivate(voluntary bool) Action {
	return Action{Kind: ActInactivate, Voluntary: voluntary}
}

// Joined reports acknowledgement of an expanding/dynamic join.
func Joined() Action { return Action{Kind: ActJoined} }

// Left reports completion of a dynamic participant's graceful leave.
func Left() Action { return Action{Kind: ActLeft} }

// Suspect reports that proc is suspected down.
func Suspect(proc ProcID) Action { return Action{Kind: ActSuspect, Proc: proc} }

// RetuneAction reports a move to the operating point (tmin, tmax).
func RetuneAction(tmin, tmax Tick) Action {
	return Action{Kind: ActRetune, TMin: tmin, TMax: tmax}
}

// Machine is the event interface shared by every protocol role.
//
// The runtime contract: deliver Start exactly once, before anything else;
// deliver OnTimer only for timers the machine armed (a replaced or
// cancelled timer must not fire); deliver OnBeat for each received
// heartbeat, including those arriving after inactivation (crashed processes
// still receive, they just no longer react — per the papers' channel
// assumption); when Config.Fixed is set, deliver pending beats before a
// timer scheduled at the same instant (§6.1 receive priority).
//
// Action slices returned by a machine are scratch buffers owned by the
// machine: they stay valid only until the next call on the same machine.
// A runtime that needs to retain actions across calls must copy them.
type Machine interface {
	// Start initialises the machine at virtual time now.
	Start(now Tick) []Action
	// OnTimer handles expiry of a previously armed timer.
	OnTimer(id TimerID, now Tick) []Action
	// OnBeat handles a received heartbeat.
	OnBeat(b Beat, now Tick) []Action
	// Crash voluntarily inactivates the machine (fault injection).
	Crash(now Tick) []Action
	// Status reports the current liveness state.
	Status() Status
}

// Config carries the timing constants and variant switches shared by all
// machines.
type Config struct {
	// TMin is the lower bound on p[0]'s waiting time and the upper bound
	// on the round-trip channel delay, in ticks. Must satisfy
	// 0 < TMin <= TMax.
	TMin Tick
	// TMax is the upper bound on p[0]'s waiting time, in ticks.
	TMax Tick
	// TwoPhase selects the two-phase variant: a missed reply drops the
	// waiting time straight to TMin instead of halving it.
	TwoPhase bool
	// Revised selects the McGuire–Gouda 2004 revision: p[0] sends its
	// first beat immediately rather than after an initial full round.
	Revised bool
	// Fixed applies the corrected inactivation bounds of Atif & Mousavi
	// §6.2 and signals the runtime to give deliveries priority over
	// same-instant timeouts (§6.1).
	Fixed bool
}

// ErrConfig reports an invalid Config.
var ErrConfig = errors.New("core: invalid config")

// Validate checks the constraint 0 < TMin <= TMax from the papers.
func (c Config) Validate() error {
	if c.TMin <= 0 {
		//lint:allow noalloc-closure cold validation error; a valid config retunes without entering this branch
		return fmt.Errorf("%w: tmin %d must be positive", ErrConfig, c.TMin)
	}
	if c.TMax < c.TMin {
		//lint:allow noalloc-closure cold validation error; a valid config retunes without entering this branch
		return fmt.Errorf("%w: tmax %d < tmin %d", ErrConfig, c.TMax, c.TMin)
	}
	return nil
}

// ResponderBound is the time a steady-state responder (binary p[1], static
// p[i], or a joined expanding/dynamic p[i]) waits for a beat from p[0]
// before inactivating: 3·tmax − tmin in the original protocols, tightened
// to 2·tmax by the §6.2 fix.
func (c Config) ResponderBound() Tick {
	if c.Fixed {
		return 2 * c.TMax
	}
	return 3*c.TMax - c.TMin
}

// JoinerBound is the time an expanding/dynamic joiner waits for p[0]'s
// acknowledgement before inactivating: 3·tmax − tmin originally, corrected
// to 2·tmax + tmin by §6.2 (the join request can land just after a round
// timeout, so the first acknowledging beat may take up to 2·tmax + tmin).
func (c Config) JoinerBound() Tick {
	if c.Fixed {
		return 2*c.TMax + c.TMin
	}
	return 3*c.TMax - c.TMin
}

// CoordinatorDetectionBound is the worst-case interval between the last
// beat received from a process and p[0]'s resulting inactivation. The 1998
// paper claims 2·tmax; §6.2 shows the true bound is 2·tmax only when
// 2·tmin > tmax and 3·tmax − tmin otherwise (geometric-series argument).
func (c Config) CoordinatorDetectionBound() Tick {
	if c.TwoPhase {
		// A stale reply can restore t=tmax one round after the last
		// receipt; the following miss drops t to tmin (or inactivates
		// immediately when tmax == tmin), and the miss after that
		// inactivates.
		if c.TMax == c.TMin {
			return 2 * c.TMax
		}
		return 2*c.TMax + c.TMin
	}
	if 2*c.TMin > c.TMax {
		return 2 * c.TMax
	}
	return 3*c.TMax - c.TMin
}

// LossTolerance is the number of consecutive missed beats the coordinator
// absorbs before suspecting a process: the length of the halving sequence
// tmax → tmax/2 → … that stays at or above tmin (log2(tmax/tmin) for the
// accelerated protocols), or exactly one probe round for the two-phase
// variant, which drops straight to tmin.
func (c Config) LossTolerance() int {
	if c.TwoPhase {
		return 1
	}
	k := 0
	for t := c.TMax; t/2 >= c.TMin; t /= 2 {
		k++
	}
	return k
}

// NextWait applies the acceleration rule to the current per-process waiting
// time: reset to TMax on a received beat, otherwise halve (or drop to TMin
// in the two-phase variant). The returned ok is false when the new waiting
// time falls below TMin, i.e. the process must be suspected.
func (c Config) NextWait(cur Tick, received bool) (next Tick, ok bool) {
	if received {
		return c.TMax, true
	}
	if c.TwoPhase {
		// The two-phase protocol probes once at tmin; a second
		// consecutive miss (cur already tmin) exhausts it.
		if cur <= c.TMin {
			return cur, false
		}
		return c.TMin, true
	}
	next = cur / 2
	if next < c.TMin {
		return next, false
	}
	return next, true
}

// beatWire is the encoded size of a Beat.
const beatWire = 4

// ErrBadBeat reports a malformed encoded heartbeat.
var ErrBadBeat = errors.New("core: malformed beat")

// Marshal encodes the beat for a datagram transport: version, 16-bit
// sender, then a packed byte with the stay flag in bit 0 and the
// incarnation in bits 1–7.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func (b Beat) Marshal() []byte {
	return b.AppendMarshal(make([]byte, 0, beatWire))
}

// AppendMarshal appends the beat's wire encoding to dst and returns the
// extended slice; with capacity in dst it allocates nothing.
func (b Beat) AppendMarshal(dst []byte) []byte {
	packed := (b.Inc & 0x7F) << 1
	if b.Stay {
		packed |= 1
	}
	return append(dst, 1 /* version */, byte(uint16(b.From)>>8), byte(uint16(b.From)), packed)
}

// UnmarshalBeat decodes a beat produced by Marshal.
func UnmarshalBeat(data []byte) (Beat, error) {
	if len(data) != beatWire {
		//lint:allow noalloc-closure malformed-frame error path; well-formed batches never enter it
		return Beat{}, fmt.Errorf("%w: length %d", ErrBadBeat, len(data))
	}
	if data[0] != 1 {
		//lint:allow noalloc-closure malformed-frame error path; well-formed batches never enter it
		return Beat{}, fmt.Errorf("%w: version %d", ErrBadBeat, data[0])
	}
	return Beat{
		From: ProcID(int16(uint16(data[1])<<8 | uint16(data[2]))),
		Stay: data[3]&1 == 1,
		Inc:  data[3] >> 1,
	}, nil
}
