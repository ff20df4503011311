package core

import "testing"

func newResponder(t *testing.T, cfg Config) *Responder {
	t.Helper()
	r, err := NewResponder(cfg, 1)
	if err != nil {
		t.Fatalf("NewResponder: %v", err)
	}
	return r
}

func TestResponderRejectsCoordinatorID(t *testing.T) {
	if _, err := NewResponder(Config{TMin: 1, TMax: 10}, CoordinatorID); err == nil {
		t.Fatal("responder with ID 0 accepted")
	}
	if _, err := NewParticipant(Config{TMin: 1, TMax: 10}, CoordinatorID, false); err == nil {
		t.Fatal("participant with ID 0 accepted")
	}
}

func TestResponderRepliesImmediately(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 10}
	r := newResponder(t, cfg)
	start := r.Start(0)
	timers := actionsOf(start, ActSetTimer)
	if len(timers) != 1 || timers[0].ID != TimerExpiry || timers[0].Delay != cfg.ResponderBound() {
		t.Fatalf("start = %v, want expiry@%d", start, cfg.ResponderBound())
	}
	acts := r.OnBeat(Beat{From: 0, Stay: true}, 5)
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].To != CoordinatorID || beats[0].Beat.From != 1 {
		t.Fatalf("reply = %v", beats)
	}
	// The watchdog is pushed out by each beat.
	timers = actionsOf(acts, ActSetTimer)
	if len(timers) != 1 || timers[0].ID != TimerExpiry || timers[0].Delay != cfg.ResponderBound() {
		t.Fatalf("watchdog rearm = %v", timers)
	}
}

func TestResponderExpiryInactivates(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 10}
	r := newResponder(t, cfg)
	r.Start(0)
	acts := r.OnTimer(TimerExpiry, cfg.ResponderBound())
	inact := actionsOf(acts, ActInactivate)
	if len(inact) != 1 || inact[0].Voluntary {
		t.Fatalf("expiry = %v, want non-voluntary inactivation", acts)
	}
	if r.Status() != StatusInactive {
		t.Fatalf("status = %v", r.Status())
	}
	// Crashed/inactive responders receive but never reply — the papers'
	// channel assumption.
	if acts := r.OnBeat(Beat{From: 0, Stay: true}, 40); acts != nil {
		t.Fatalf("inactive responder replied: %v", acts)
	}
}

func TestResponderIgnoresNonCoordinatorBeats(t *testing.T) {
	r := newResponder(t, Config{TMin: 1, TMax: 10})
	r.Start(0)
	if acts := r.OnBeat(Beat{From: 2, Stay: true}, 1); acts != nil {
		t.Fatalf("replied to non-coordinator: %v", acts)
	}
}

func TestResponderCrash(t *testing.T) {
	r := newResponder(t, Config{TMin: 1, TMax: 10})
	r.Start(0)
	acts := r.Crash(3)
	if !hasAction(acts, ActCancelTimer) {
		t.Fatal("crash must cancel the watchdog")
	}
	if r.Status() != StatusCrashed {
		t.Fatalf("status = %v", r.Status())
	}
	if acts := r.OnTimer(TimerExpiry, 29); acts != nil {
		t.Fatal("crashed responder inactivated again")
	}
}

func TestFixedResponderUsesTighterBound(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 10, Fixed: true}
	r := newResponder(t, cfg)
	timers := actionsOf(r.Start(0), ActSetTimer)
	if timers[0].Delay != 20 {
		t.Fatalf("fixed watchdog = %d, want 2·tmax = 20", timers[0].Delay)
	}
}

func newParticipant(t *testing.T, cfg Config, dynamic bool) *Participant {
	t.Helper()
	p, err := NewParticipant(cfg, 2, dynamic)
	if err != nil {
		t.Fatalf("NewParticipant: %v", err)
	}
	return p
}

func TestParticipantSolicitsUntilJoined(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	p := newParticipant(t, cfg, false)
	start := p.Start(0)
	beats := actionsOf(start, ActSendBeat)
	if len(beats) != 1 || beats[0].To != CoordinatorID || !beats[0].Beat.Stay {
		t.Fatalf("initial solicitation = %v", start)
	}
	var wantDelays = map[TimerID]Tick{
		TimerJoinResend: cfg.TMin,
		TimerExpiry:     cfg.JoinerBound(),
	}
	for _, st := range actionsOf(start, ActSetTimer) {
		if wantDelays[st.ID] != st.Delay {
			t.Fatalf("timer %v delay = %d, want %d", st.ID, st.Delay, wantDelays[st.ID])
		}
		delete(wantDelays, st.ID)
	}
	if len(wantDelays) != 0 {
		t.Fatalf("missing timers: %v", wantDelays)
	}
	// Resolicit every tmin while unjoined.
	acts := p.OnTimer(TimerJoinResend, 2)
	if !hasAction(acts, ActSendBeat) || !hasAction(acts, ActSetTimer) {
		t.Fatalf("resend = %v", acts)
	}
	if p.joined {
		t.Fatal("joined before any beat from p[0]")
	}
	// p[0]'s first beat acknowledges the join.
	acts = p.OnBeat(Beat{From: 0, Stay: true}, 11)
	if !hasAction(acts, ActJoined) {
		t.Fatalf("join ack missing: %v", acts)
	}
	if !p.joined {
		t.Fatal("not joined after ack")
	}
	replies := actionsOf(acts, ActSendBeat)
	if len(replies) != 1 || !replies[0].Beat.Stay {
		t.Fatalf("joined reply = %v", replies)
	}
	// Joined participants no longer resolicit.
	if acts := p.OnTimer(TimerJoinResend, 12); acts != nil {
		t.Fatalf("joined participant resolicited: %v", acts)
	}
	// Second beat must not re-announce the join.
	acts = p.OnBeat(Beat{From: 0, Stay: true}, 15)
	if hasAction(acts, ActJoined) {
		t.Fatal("duplicate Joined event")
	}
}

func TestParticipantGivesUpAtJoinerBound(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	p := newParticipant(t, cfg, false)
	p.Start(0)
	acts := p.OnTimer(TimerExpiry, cfg.JoinerBound())
	if !hasAction(acts, ActInactivate) || p.Status() != StatusInactive {
		t.Fatalf("joiner bound expiry: %v, status %v", acts, p.Status())
	}
}

func TestParticipantLeaveHandshake(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	p := newParticipant(t, cfg, true)
	p.Start(0)
	p.OnBeat(Beat{From: 0, Stay: true}, 5) // joined
	acts, err := p.Leave(8)
	if err != nil {
		t.Fatalf("Leave: %v", err)
	}
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].Beat.Stay {
		t.Fatalf("leave beat = %v", beats)
	}
	// A true beat from p[0] (leave not yet processed) is answered with
	// another false beat.
	acts = p.OnBeat(Beat{From: 0, Stay: true}, 9)
	beats = actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].Beat.Stay {
		t.Fatalf("pre-ack reply = %v", beats)
	}
	// A leaving participant is never non-voluntarily inactivated.
	if acts := p.OnTimer(TimerExpiry, 100); acts != nil {
		t.Fatalf("leaving participant inactivated: %v", acts)
	}
	// The false ack completes the leave.
	acts = p.OnBeat(Beat{From: 0, Stay: false}, 12)
	if !hasAction(acts, ActLeft) || p.Status() != StatusLeft {
		t.Fatalf("leave completion: %v, status %v", acts, p.Status())
	}
	// Idempotent afterwards.
	if acts := p.OnBeat(Beat{From: 0, Stay: true}, 13); acts != nil {
		t.Fatalf("left participant reacted: %v", acts)
	}
	if acts, err := p.Leave(14); err != nil || acts != nil {
		t.Fatalf("Leave after left = %v, %v", acts, err)
	}
}

func TestParticipantLeaveRetriesEveryTMin(t *testing.T) {
	cfg := Config{TMin: 2, TMax: 10}
	p := newParticipant(t, cfg, true)
	p.Start(0)
	p.OnBeat(Beat{From: 0, Stay: true}, 5)
	if _, err := p.Leave(8); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	acts := p.OnTimer(TimerJoinResend, 10)
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].Beat.Stay {
		t.Fatalf("leave retry = %v", acts)
	}
	rearm := actionsOf(acts, ActSetTimer)
	if len(rearm) != 1 || rearm[0].ID != TimerJoinResend || rearm[0].Delay != cfg.TMin {
		t.Fatalf("leave retry rearm = %v", acts)
	}
}

func TestParticipantLeaveRequiresDynamic(t *testing.T) {
	p := newParticipant(t, Config{TMin: 2, TMax: 10}, false)
	p.Start(0)
	if _, err := p.Leave(1); err == nil {
		t.Fatal("Leave on expanding participant succeeded")
	}
}

func TestParticipantCrash(t *testing.T) {
	p := newParticipant(t, Config{TMin: 2, TMax: 10}, true)
	p.Start(0)
	acts := p.Crash(1)
	if got := len(actionsOf(acts, ActCancelTimer)); got != 2 {
		t.Fatalf("crash cancelled %d timers, want 2", got)
	}
	if p.Status() != StatusCrashed {
		t.Fatalf("status = %v", p.Status())
	}
	if acts := p.OnBeat(Beat{From: 0, Stay: true}, 2); acts != nil {
		t.Fatal("crashed participant replied")
	}
}

func TestParticipantIgnoresStrayLeaveAck(t *testing.T) {
	p := newParticipant(t, Config{TMin: 2, TMax: 10}, true)
	p.Start(0)
	if acts := p.OnBeat(Beat{From: 0, Stay: false}, 1); acts != nil {
		t.Fatalf("stray false beat processed: %v", acts)
	}
	if p.Status() != StatusActive || p.joined {
		t.Fatal("stray false beat changed state")
	}
}

// TestPlainProtocolRoundTrip: the plain baseline's p[0] and p[1] exchange
// beats every Period while the replies arrive, and the first round without
// one suspects the member: the miss limit is 1.
func TestPlainProtocolRoundTrip(t *testing.T) {
	const period = 5
	c, err := NewPlainCoordinator(PlainConfig{Period: period, MissLimit: 1, Members: []ProcID{1}})
	if err != nil {
		t.Fatalf("NewPlainCoordinator: %v", err)
	}
	r := newResponder(t, Config{TMin: period, TMax: period})
	c.Start(0)
	r.Start(0)
	now := Tick(0)
	for round := 0; round < 3; round++ {
		now += period
		acts := c.OnTimer(TimerRound, now)
		if hasAction(acts, ActInactivate) {
			t.Fatalf("round %d: suspected although every reply arrived: %v", round, acts)
		}
		beats := actionsOf(acts, ActSendBeat)
		if len(beats) != 1 || beats[0].To != 1 {
			t.Fatalf("round %d: beats %v, want one to p[1]", round, beats)
		}
		replies := actionsOf(r.OnBeat(beats[0].Beat, now), ActSendBeat)
		if len(replies) != 1 || replies[0].To != CoordinatorID {
			t.Fatalf("round %d: replies %v, want one to p[0]", round, replies)
		}
		c.OnBeat(replies[0].Beat, now)
	}
	// The last reply counts for this round; its beat is lost.
	now += period
	if acts := c.OnTimer(TimerRound, now); hasAction(acts, ActInactivate) {
		t.Fatalf("suspected although the last reply arrived: %v", acts)
	}
	acts := c.OnTimer(TimerRound, now+period)
	if !hasAction(acts, ActSuspect) || !hasAction(acts, ActInactivate) || c.Status() != StatusInactive {
		t.Fatalf("first missed reply: %v, status %v; want a suspicion", acts, c.Status())
	}
}

// TestPlainResponder: the baseline's responder is the binary protocol's at
// tmin = tmax, so its watchdog is ResponderBound = 2·Period.
func TestPlainResponder(t *testing.T) {
	cfg := Config{TMin: 10, TMax: 10}
	if got := cfg.ResponderBound(); got != 20 {
		t.Fatalf("ResponderBound = %d, want 20", got)
	}
	r := newResponder(t, cfg)
	r.Start(0)
	acts := r.OnBeat(Beat{From: 0, Stay: true}, 5)
	if !hasAction(acts, ActSendBeat) {
		t.Fatalf("no reply: %v", acts)
	}
	r.OnTimer(TimerExpiry, 25)
	if r.Status() != StatusInactive {
		t.Fatalf("status = %v", r.Status())
	}
	if _, err := NewResponder(cfg, CoordinatorID); err == nil {
		t.Fatal("plain responder with ID 0 accepted")
	}
	if _, err := NewResponder(Config{}, 1); err == nil {
		t.Fatal("plain responder with zero period accepted")
	}
}
