package core

import (
	"fmt"
	"slices"
)

// Membership selects how the coordinator learns its peer set.
type Membership int

// Membership modes, mirroring the protocol family: the binary and static
// protocols fix the peer set up front; the expanding protocol admits
// joiners; the dynamic protocol additionally processes leaves.
const (
	MembershipFixed Membership = iota + 1
	MembershipExpanding
	MembershipDynamic
)

// String implements fmt.Stringer.
func (m Membership) String() string {
	switch m {
	case MembershipFixed:
		return "fixed"
	case MembershipExpanding:
		return "expanding"
	case MembershipDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Membership(%d)", int(m))
	}
}

// CoordinatorConfig configures a Coordinator (p[0]).
type CoordinatorConfig struct {
	Config
	// Membership selects fixed (binary/static), expanding, or dynamic
	// peer management.
	Membership Membership
	// Members is the fixed peer set; required non-empty for
	// MembershipFixed, must be empty otherwise (peers join at run time).
	Members []ProcID
	// AllowRejoin enables the rejoin extension (dynamic membership
	// only): a departed peer may join again with a higher incarnation
	// number; stale beats from its earlier incarnations are ignored.
	AllowRejoin bool
}

// Validate checks the configuration.
func (c CoordinatorConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch c.Membership {
	case MembershipFixed:
		if len(c.Members) == 0 {
			return fmt.Errorf("%w: fixed membership needs at least one member", ErrConfig)
		}
		seen := make(map[ProcID]bool, len(c.Members))
		for _, id := range c.Members {
			if id == CoordinatorID {
				return fmt.Errorf("%w: member list contains the coordinator", ErrConfig)
			}
			if seen[id] {
				return fmt.Errorf("%w: duplicate member %d", ErrConfig, id)
			}
			seen[id] = true
		}
	case MembershipExpanding, MembershipDynamic:
		if len(c.Members) != 0 {
			return fmt.Errorf("%w: %v membership starts empty", ErrConfig, c.Membership)
		}
	default:
		return fmt.Errorf("%w: unknown membership %d", ErrConfig, int(c.Membership))
	}
	if c.AllowRejoin && c.Membership != MembershipDynamic {
		return fmt.Errorf("%w: rejoin requires dynamic membership", ErrConfig)
	}
	return nil
}

// memberState is the coordinator's per-peer bookkeeping: the rcvd flag and
// the tm[i] waiting time of the static protocol, plus the peer's current
// incarnation for the rejoin extension.
type memberState struct {
	rcvd bool
	tm   Tick
	inc  uint8
}

// Coordinator implements p[0] for every protocol variant. The binary
// protocol is the fixed-membership instance with one member; the static
// protocol is the same with n members; the expanding and dynamic protocols
// grow (and, for dynamic, shrink) the member set at run time.
type Coordinator struct {
	cfg    CoordinatorConfig
	status Status
	t      Tick // current round length
	// order holds the member IDs in ascending order and state[i] the
	// bookkeeping of order[i]; both move together on every join and leave.
	// Per-round iteration neither sorts nor allocates.
	order []ProcID
	state []memberState
	// index[id] is 1 + the position of member id in order, or 0 for an id
	// that is not a member, for every id below len(index): a beat finds its
	// member with one load. It grows on demand to the highest member
	// admitted below indexLimit (a wire beat's 16-bit ID is below it), and
	// every join and leave rewrites the entries of the members it shifts.
	// A member outside [0, indexLimit) is found by a scan of order.
	index []int32
	// left records departed peers and the incarnation that left; without
	// AllowRejoin, departure is permanent.
	left    map[ProcID]uint8
	started bool
	// acts is the scratch slice behind every returned action list (see
	// the Machine contract).
	acts []Action
}

var _ Machine = (*Coordinator)(nil)

// NewCoordinator builds a p[0] machine.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		status: StatusActive,
		t:      cfg.TMax,
		left:   make(map[ProcID]uint8),
	}
	for _, id := range cfg.Members {
		// rcvd starts true, as in the mCRL2 model: the first round is a
		// grace round; a peer is only suspected after missing a full
		// exchange it was given the chance to answer.
		c.insert(id, memberState{rcvd: true, tm: cfg.TMax})
	}
	return c, nil
}

// indexLimit bounds the dense member index: a beat's sender is a 16-bit
// signed integer on the wire, so every wire ID a member can have is below
// it, and the index holds at most 2^15 entries.
const indexLimit = 1 << 15

// find returns the position of member id in order, or -1 if id is not a
// member.
func (c *Coordinator) find(id ProcID) int {
	if uint(id) < uint(len(c.index)) {
		return int(c.index[id]) - 1
	}
	if id >= 0 && id < indexLimit {
		return -1 // the index covers every member below indexLimit
	}
	return slices.Index(c.order, id)
}

// insert admits id, not yet a member, with state m at its place in the
// sorted member list.
func (c *Coordinator) insert(id ProcID, m memberState) {
	i, _ := slices.BinarySearch(c.order, id)
	c.order = slices.Insert(c.order, i, id)
	c.state = slices.Insert(c.state, i, m)
	if id >= 0 && id < indexLimit && int(id) >= len(c.index) {
		c.index = append(c.index, make([]int32, int(id)+1-len(c.index))...)
	}
	c.reindex(i)
}

// remove drops the member at position i of the member list.
func (c *Coordinator) remove(i int) {
	if id := c.order[i]; uint(id) < uint(len(c.index)) {
		c.index[id] = 0
	}
	c.order = slices.Delete(c.order, i, i+1)
	c.state = slices.Delete(c.state, i, i+1)
	c.reindex(i)
}

// reindex rewrites the index entries of the members from position i on,
// which a join or a leave at i shifted.
func (c *Coordinator) reindex(i int) {
	for ; i < len(c.order); i++ {
		if id := c.order[i]; uint(id) < uint(len(c.index)) {
			c.index[id] = int32(i + 1)
		}
	}
}

// Status implements Machine.
func (c *Coordinator) Status() Status { return c.status }

// Retune moves the coordinator to a new (tmin, tmax) operating point. It
// is meant to be called at a round boundary, before OnTimer processes the
// round: every member's waiting budget is reset to the new tmax and its
// rcvd flag raised, so the round in progress becomes a grace round at the
// new point — the adaptive variant widens instead of false-confirming a
// suspicion formed under constants it has just abandoned. The current
// round timer is left running; the next SetTimer picks up the new pace.
func (c *Coordinator) Retune(tmin, tmax Tick) error {
	if err := (Config{TMin: tmin, TMax: tmax}).Validate(); err != nil {
		return err
	}
	c.cfg.TMin, c.cfg.TMax = tmin, tmax
	c.t = tmax
	for i := range c.state {
		c.state[i].tm = tmax
		c.state[i].rcvd = true
	}
	return nil
}

// roundObservation reports the coordinator's view of the closing round:
// how many members it counted on and how many failed to reply. Meaningful
// immediately before OnTimer(TimerRound), which clears the rcvd flags.
func (c *Coordinator) roundObservation() (members, missed int) {
	for _, m := range c.state {
		if !m.rcvd {
			missed++
		}
	}
	return len(c.state), missed
}

// Start implements Machine. The original protocol waits out a full round
// before the first beat; the revised variant beats immediately.
func (c *Coordinator) Start(now Tick) []Action {
	if c.started {
		return nil
	}
	c.started = true
	actions := append(c.acts[:0], SetTimer(TimerRound, c.t))
	if c.cfg.Revised {
		actions = c.appendSendAll(actions)
	}
	c.acts = actions
	return actions
}

// appendSendAll appends one beat per current member, in ascending ID
// order for determinism.
func (c *Coordinator) appendSendAll(actions []Action) []Action {
	for _, id := range c.order {
		actions = append(actions, SendBeat(id, Beat{From: CoordinatorID, Stay: true}))
	}
	return actions
}

// OnBeat implements Machine. A beat from a known member marks it received
// for the current round. Under expanding/dynamic membership a beat from an
// unknown, never-departed process is a join request. Under dynamic
// membership a beat with Stay=false is a leave, acknowledged immediately
// with a false beat, after which the peer no longer counts toward the
// round computation.
func (c *Coordinator) OnBeat(b Beat, now Tick) []Action {
	if c.status != StatusActive {
		return nil // crashed processes receive but do not react
	}
	if b.From == CoordinatorID {
		return nil // self-beats are a protocol error; ignore defensively
	}
	if !b.Stay && c.cfg.Membership == MembershipDynamic {
		return c.onLeave(b.From, b.Inc)
	}
	if i := c.find(b.From); i >= 0 {
		m := &c.state[i]
		if b.Inc < m.inc {
			return nil // stale beat from an earlier incarnation
		}
		m.inc = b.Inc
		m.rcvd = true
		m.tm = c.cfg.TMax
		return nil
	}
	switch c.cfg.Membership {
	case MembershipExpanding, MembershipDynamic:
		if leftInc, departed := c.left[b.From]; departed {
			if !c.cfg.AllowRejoin || b.Inc <= leftInc {
				return nil // departure is permanent (or a stale join)
			}
			delete(c.left, b.From)
		}
		// Admit the joiner. It learns of its admission from p[0]'s next
		// round broadcast, exactly as in the expanding protocol: p[0]
		// does not acknowledge out of band.
		c.insert(b.From, memberState{rcvd: true, tm: c.cfg.TMax, inc: b.Inc})
		return nil
	default:
		return nil // fixed membership ignores strangers
	}
}

// onLeave processes a dynamic-protocol leave request. The acknowledgement
// (a beat carrying the same false parameter, as the protocol prescribes)
// is idempotent so that a leaver whose ack was lost can retry. A leave
// from an incarnation older than the current member is stale — the peer
// has already rejoined — and is ignored.
func (c *Coordinator) onLeave(from ProcID, inc uint8) []Action {
	if i := c.find(from); i >= 0 {
		if inc < c.state[i].inc {
			return nil // stale leave from a previous incarnation
		}
		c.remove(i)
	}
	if prev, ok := c.left[from]; !ok || inc > prev {
		c.left[from] = inc
	}
	c.acts = append(c.acts[:0], SendBeat(from, Beat{From: CoordinatorID, Stay: false, Inc: inc}))
	return c.acts
}

// OnTimer implements Machine. At each round timeout p[0] applies the
// acceleration rule per member, suspects members whose waiting time decayed
// below tmin (which inactivates p[0] itself, per the protocol), and
// otherwise beats every member and re-arms the round timer with the minimum
// waiting time.
func (c *Coordinator) OnTimer(id TimerID, now Tick) []Action {
	if c.status != StatusActive || id != TimerRound {
		return nil
	}
	// Walking the sorted member list emits suspects in ascending ID
	// order directly, with no per-round sort or allocation.
	actions := c.acts[:0]
	next := c.cfg.TMax // round length with no members: idle at tmax
	for i := range c.state {
		m := &c.state[i]
		tm, ok := c.cfg.NextWait(m.tm, m.rcvd)
		if !ok {
			actions = append(actions, Suspect(c.order[i]))
		}
		m.tm = tm
		m.rcvd = false
		if tm < next {
			next = tm
		}
	}
	if len(actions) > 0 {
		c.status = StatusInactive
		actions = append(actions, Inactivate(false))
		c.acts = actions
		return actions
	}
	c.t = next
	actions = c.appendSendAll(actions)
	actions = append(actions, SetTimer(TimerRound, c.t))
	c.acts = actions
	return actions
}

// Crash implements Machine.
func (c *Coordinator) Crash(now Tick) []Action {
	if c.status != StatusActive {
		return nil
	}
	c.status = StatusCrashed
	c.acts = append(c.acts[:0], CancelTimer(TimerRound), Inactivate(true))
	return c.acts
}
