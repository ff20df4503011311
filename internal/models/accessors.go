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

// EverDelivered reports whether p[0] has ever received a beat from p[i+1].
func (m *Model) EverDelivered(s *ta.State, i int) bool {
	return s.Vars[m.vEver[i]] == 1
}

// MessageLost reports whether any message was lost so far.
func (m *Model) MessageLost(s *ta.State) bool {
	return s.Vars[m.vLost] == 1
}

// VerifyGoal checks reachability of an arbitrary goal predicate on the
// model, for scenario-shaped queries beyond R1–R3.
func (m *Model) VerifyGoal(goal func(*ta.State) bool, opts mc.Options) (mc.Result, error) {
	res, err := mc.CheckReachability(m.Net, goal, opts)
	if err != nil {
		return res, fmt.Errorf("checking goal on %v: %w", m.Cfg.Variant, err)
	}
	return res, nil
}
