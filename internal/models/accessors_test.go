package models

import "repro/internal/ta"

// P0Alive reports whether p[0] is in its Alive location.
func (m *Model) P0Alive(s *ta.State) bool {
	return int(s.Locs[m.p0.aut]) == m.p0.alive
}

// ParticipantAlive reports whether p[i+1] is alive (Alive or mid-reply).
func (m *Model) ParticipantAlive(s *ta.State, i int) bool {
	loc := int(s.Locs[m.ps[i].aut])
	return loc == m.ps[i].alive || loc == m.ps[i].rcvd
}

// ParticipantNVInactivated reports whether p[i+1] was non-voluntarily
// inactivated.
func (m *Model) ParticipantNVInactivated(s *ta.State, i int) bool {
	return int(s.Locs[m.ps[i].aut]) == m.ps[i].nvInact
}
