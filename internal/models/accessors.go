package models

import (
	"fmt"

	"repro/internal/mc"
	"repro/internal/ta"
)

// P0NVInactivated reports whether p[0] was non-voluntarily inactivated.
func (m *Model) P0NVInactivated(s *ta.State) bool {
	return int(s.Locs[m.p0.aut]) == m.p0.nvInact
}

// StaleBeat is Figure 10a's goal: R1 is violated on a loss-free run
// although p[0] has received a beat from p[1] — the stale reply that
// restores tmax, which Figure 10b's plain decay lacks.
func (m *Model) StaleBeat(s *ta.State) bool {
	return m.R1Violated(s) && s.Vars[m.vEver[0]] == 1 && !m.MessageLost(s)
}

// MessageLost reports whether any message was lost so far.
func (m *Model) MessageLost(s *ta.State) bool {
	return s.Vars[m.vLost] == 1
}

// VerifyGoal checks reachability of an arbitrary goal predicate on the
// model, for scenario-shaped queries beyond R1–R3. The network is not
// reduced, but the search covers on its lower-bound clocks
// (mc.CheckReachability), so goal must read no clock, as the model's own
// predicates do.
func (m *Model) VerifyGoal(goal func(*ta.State) bool, opts mc.Options) (mc.Result, error) {
	res, err := mc.CheckReachability(m.Net, goal, opts)
	if err != nil {
		return res, fmt.Errorf("checking goal on %v: %w", m.Cfg.Variant, err)
	}
	return res, nil
}
