package core

import "fmt"

// PlainConfig configures the plain (non-accelerated) heartbeat the 1998
// paper improves on: a fixed period, and the first round without a reply
// is fatal. That protocol is the accelerated one at tmin = tmax = Period
// (the wait never decays, so one miss drops it below tmin), and
// NewPlainCoordinator builds it as exactly that.
type PlainConfig struct {
	// Period is the fixed round length in ticks.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	Period Tick
	// MissLimit must be 1: no other miss limit has a caller.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	MissLimit int
	// Members is the fixed peer set.
	//
	//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
	Members []ProcID
}

// NewPlainCoordinator builds the baseline's p[0]: a fixed-membership
// Coordinator at tmin = tmax = Period.
//
//lint:allow unused-export bench/ is its only caller (ROADMAP item 2)
func NewPlainCoordinator(cfg PlainConfig) (*Coordinator, error) {
	if cfg.MissLimit != 1 {
		return nil, fmt.Errorf("%w: the plain baseline's miss limit must be 1", ErrConfig)
	}
	return NewCoordinator(CoordinatorConfig{
		Config:     Config{TMin: cfg.Period, TMax: cfg.Period},
		Membership: MembershipFixed,
		Members:    cfg.Members,
	})
}
