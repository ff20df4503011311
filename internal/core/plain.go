package core

import (
	"fmt"
	"slices"
)

// PlainConfig configures the plain (non-accelerated) heartbeat baseline:
// a fixed exchange period and a fixed number of consecutive missed rounds
// tolerated before declaring a failure. This is the protocol the 1998 paper
// accelerates: to match the accelerated protocol's detection latency it
// must beat fast all the time, and a burst of MissLimit lost messages
// produces a false detection.
type PlainConfig struct {
	// Period is the fixed round length in ticks.
	Period Tick
	// MissLimit is the number of consecutive rounds without a reply after
	// which a member is suspected. Must be at least 1.
	MissLimit int
	// Members is the fixed peer set.
	Members []ProcID
}

// Validate checks the configuration.
func (c PlainConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("%w: period %d must be positive", ErrConfig, c.Period)
	}
	if c.MissLimit < 1 {
		return fmt.Errorf("%w: miss limit %d must be at least 1", ErrConfig, c.MissLimit)
	}
	if len(c.Members) == 0 {
		return fmt.Errorf("%w: plain coordinator needs at least one member", ErrConfig)
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
	return nil
}

// DetectionBound is the worst-case interval between a member's last beat
// arriving at p[0] and p[0] suspecting it: the remainder of the current
// round plus MissLimit further rounds.
func (c PlainConfig) DetectionBound() Tick {
	return Tick(c.MissLimit+1) * c.Period
}

// PlainCoordinator is p[0] of the baseline protocol.
type PlainCoordinator struct {
	cfg    PlainConfig
	status Status
	// order is cfg.Members in ascending order and state[i] the bookkeeping
	// of order[i], as in Coordinator: a beat finds its member by binary
	// search and a round emits its suspects already sorted.
	order   []ProcID
	state   []plainState
	started bool
	// acts is the scratch slice behind every returned action list (see
	// the Machine contract).
	acts []Action
}

// plainState is the baseline's per-peer bookkeeping.
type plainState struct {
	rcvd   bool
	misses int
}

var _ Machine = (*PlainCoordinator)(nil)

// NewPlainCoordinator builds the baseline p[0].
func NewPlainCoordinator(cfg PlainConfig) (*PlainCoordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &PlainCoordinator{
		cfg:    cfg,
		status: StatusActive,
		order:  append([]ProcID(nil), cfg.Members...),
		state:  make([]plainState, len(cfg.Members)),
	}
	slices.Sort(c.order)
	for i := range c.state {
		c.state[i].rcvd = true // first round is a grace round, as in Coordinator
	}
	return c, nil
}

// Status implements Machine.
func (c *PlainCoordinator) Status() Status { return c.status }

// Start implements Machine.
func (c *PlainCoordinator) Start(now Tick) []Action {
	if c.started {
		return nil
	}
	c.started = true
	c.acts = append(c.acts[:0], SetTimer(TimerRound, c.cfg.Period))
	return c.acts
}

// OnBeat implements Machine.
func (c *PlainCoordinator) OnBeat(b Beat, now Tick) []Action {
	if c.status != StatusActive {
		return nil
	}
	if i, known := slices.BinarySearch(c.order, b.From); known {
		c.state[i].rcvd = true
	}
	return nil
}

// OnTimer implements Machine.
func (c *PlainCoordinator) OnTimer(id TimerID, now Tick) []Action {
	if c.status != StatusActive || id != TimerRound {
		return nil
	}
	actions := c.acts[:0]
	for i := range c.state {
		m := &c.state[i]
		if m.rcvd {
			m.misses = 0
		} else if m.misses++; m.misses >= c.cfg.MissLimit {
			actions = append(actions, Suspect(c.order[i]))
		}
		m.rcvd = false
	}
	if len(actions) > 0 {
		c.status = StatusInactive
		actions = append(actions, Inactivate(false))
		c.acts = actions
		return actions
	}
	for _, pid := range c.cfg.Members {
		actions = append(actions, SendBeat(pid, Beat{From: CoordinatorID, Stay: true}))
	}
	actions = append(actions, SetTimer(TimerRound, c.cfg.Period))
	c.acts = actions
	return actions
}

// Crash implements Machine.
func (c *PlainCoordinator) Crash(now Tick) []Action {
	if c.status != StatusActive {
		return nil
	}
	c.status = StatusCrashed
	c.acts = append(c.acts[:0], CancelTimer(TimerRound), Inactivate(true))
	return c.acts
}
