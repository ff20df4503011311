package core

import "testing"

func newRejoinPair(t *testing.T) (*Coordinator, *Participant) {
	t.Helper()
	cfg := Config{TMin: 2, TMax: 10}
	c, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		Membership:  MembershipDynamic,
		AllowRejoin: true,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	p, err := NewParticipant(cfg, 5, true)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	c.Start(0)
	p.Start(0)
	return c, p
}

// joinLeave walks the pair through a complete join and leave handshake.
func joinLeave(t *testing.T, c *Coordinator, p *Participant, now Tick) Tick {
	t.Helper()
	// Join: participant's solicitation reaches p[0]; p[0]'s beat acks.
	c.OnBeat(p.beat(true), now)
	p.OnBeat(Beat{From: 0, Stay: true}, now+1)
	if !p.joined {
		t.Fatal("participant did not join")
	}
	if len(c.order) != 1 {
		t.Fatalf("members = %v", c.order)
	}
	// Leave: false beat, ack with matching incarnation.
	acts, err := p.Leave(now + 2)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	leaveBeat := actionsOf(acts, ActSendBeat)[0].Beat
	ackActs := c.OnBeat(leaveBeat, now+3)
	ack := actionsOf(ackActs, ActSendBeat)[0].Beat
	p.OnBeat(ack, now+4)
	if p.Status() != StatusLeft {
		t.Fatalf("status = %v, want left", p.Status())
	}
	if len(c.order) != 0 {
		t.Fatalf("members after leave = %v", c.order)
	}
	return now + 5
}

func TestRejoinHandshake(t *testing.T) {
	c, p := newRejoinPair(t)
	now := joinLeave(t, c, p, 1)

	acts, err := p.Rejoin(now)
	if err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if p.inc != 1 {
		t.Fatalf("incarnation = %d, want 1", p.inc)
	}
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || !beats[0].Beat.Stay || beats[0].Beat.Inc != 1 {
		t.Fatalf("rejoin solicitation = %v", acts)
	}
	// The coordinator readmits the higher incarnation.
	c.OnBeat(beats[0].Beat, now+1)
	if got := c.order; len(got) != 1 || got[0] != 5 {
		t.Fatalf("members after rejoin = %v", got)
	}
	// And the participant joins again on p[0]'s next beat.
	joined := p.OnBeat(Beat{From: 0, Stay: true}, now+2)
	if !hasAction(joined, ActJoined) || p.Status() != StatusActive {
		t.Fatalf("rejoin completion: %v, status %v", joined, p.Status())
	}
}

func TestRejoinStaleBeatsIgnored(t *testing.T) {
	c, p := newRejoinPair(t)
	now := joinLeave(t, c, p, 1)
	if _, err := p.Rejoin(now); err != nil {
		t.Fatal(err)
	}
	c.OnBeat(p.beat(true), now+1) // incarnation 1 admitted

	// A stale LEAVE from incarnation 0 (delayed in the network) must not
	// evict the new incarnation.
	c.OnBeat(Beat{From: 5, Stay: false, Inc: 0}, now+2)
	if got := c.order; len(got) != 1 {
		t.Fatalf("stale leave evicted the rejoined member: %v", got)
	}
	// A stale JOIN from incarnation 0 must not resurrect a member after
	// incarnation 1 leaves.
	acts, err := p.Leave(now + 3)
	if err != nil {
		t.Fatal(err)
	}
	c.OnBeat(actionsOf(acts, ActSendBeat)[0].Beat, now+4)
	if len(c.order) != 0 {
		t.Fatal("leave of incarnation 1 not processed")
	}
	c.OnBeat(Beat{From: 5, Stay: true, Inc: 0}, now+5)
	c.OnBeat(Beat{From: 5, Stay: true, Inc: 1}, now+5)
	if len(c.order) != 0 {
		t.Fatal("stale join resurrected a departed member")
	}
}

func TestRejoinStaleAckDoesNotCompleteNewLeave(t *testing.T) {
	c, p := newRejoinPair(t)
	now := joinLeave(t, c, p, 1)
	if _, err := p.Rejoin(now); err != nil {
		t.Fatal(err)
	}
	c.OnBeat(p.beat(true), now+1)
	p.OnBeat(Beat{From: 0, Stay: true}, now+2) // joined again
	if _, err := p.Leave(now + 3); err != nil {
		t.Fatal(err)
	}
	// A stale ack from the FIRST leave (incarnation 0) arrives: it must
	// not complete incarnation 1's leave.
	if acts := p.OnBeat(Beat{From: 0, Stay: false, Inc: 0}, now+4); acts != nil {
		t.Fatalf("stale ack processed: %v", acts)
	}
	if p.Status() != StatusActive {
		t.Fatalf("status = %v, want still active (leaving)", p.Status())
	}
	// The matching ack completes it.
	p.OnBeat(Beat{From: 0, Stay: false, Inc: 1}, now+5)
	if p.Status() != StatusLeft {
		t.Fatalf("status = %v, want left", p.Status())
	}
}

func TestRejoinValidation(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	// Rejoin requires dynamic.
	pe, err := NewParticipant(cfg, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	pe.Start(0)
	if _, err := pe.Rejoin(1); err == nil {
		t.Fatal("rejoin on expanding participant accepted")
	}
	// Rejoin requires a completed leave.
	pd, err := NewParticipant(cfg, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	pd.Start(0)
	if _, err := pd.Rejoin(1); err == nil {
		t.Fatal("rejoin while active accepted")
	}
	// Coordinator flag requires dynamic membership.
	if _, err := NewCoordinator(CoordinatorConfig{
		Config:      cfg,
		Membership:  MembershipExpanding,
		AllowRejoin: true,
	}); err == nil {
		t.Fatal("AllowRejoin with expanding membership accepted")
	}
}

func TestRejoinWithoutCoordinatorSupport(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	c, err := NewCoordinator(CoordinatorConfig{Config: cfg, Membership: MembershipDynamic})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewParticipant(cfg, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	p.Start(0)
	now := joinLeave(t, c, p, 1)
	if _, err := p.Rejoin(now); err != nil {
		t.Fatal(err)
	}
	// Without AllowRejoin the coordinator ignores the higher incarnation:
	// departure stays permanent, as in the original dynamic protocol.
	c.OnBeat(p.beat(true), now+1)
	if len(c.order) != 0 {
		t.Fatal("coordinator without AllowRejoin readmitted a departed peer")
	}
}
