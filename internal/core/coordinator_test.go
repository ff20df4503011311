package core

import (
	"testing"
)

// actionsOf extracts all actions of the given kind, in order.
func actionsOf(actions []Action, kind ActionKind) []Action {
	var out []Action
	for _, a := range actions {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func hasAction(actions []Action, kind ActionKind) bool {
	return len(actionsOf(actions, kind)) > 0
}

func newBinaryP0(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Config:     cfg,
		Membership: MembershipFixed,
		Members:    []ProcID{1},
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

func TestCoordinatorConfigValidate(t *testing.T) {
	base := Config{TMin: 1, TMax: 10}
	tests := []struct {
		name string
		cfg  CoordinatorConfig
		ok   bool
	}{
		{"binary", CoordinatorConfig{Config: base, Membership: MembershipFixed, Members: []ProcID{1}}, true},
		{"static", CoordinatorConfig{Config: base, Membership: MembershipFixed, Members: []ProcID{1, 2, 3}}, true},
		{"expanding", CoordinatorConfig{Config: base, Membership: MembershipExpanding}, true},
		{"dynamic", CoordinatorConfig{Config: base, Membership: MembershipDynamic}, true},
		{"fixed empty", CoordinatorConfig{Config: base, Membership: MembershipFixed}, false},
		{"fixed with self", CoordinatorConfig{Config: base, Membership: MembershipFixed, Members: []ProcID{0, 1}}, false},
		{"fixed duplicate", CoordinatorConfig{Config: base, Membership: MembershipFixed, Members: []ProcID{1, 1}}, false},
		{"expanding with members", CoordinatorConfig{Config: base, Membership: MembershipExpanding, Members: []ProcID{1}}, false},
		{"unknown membership", CoordinatorConfig{Config: base, Members: []ProcID{1}}, false},
		{"bad timing", CoordinatorConfig{Config: Config{TMin: 0, TMax: 1}, Membership: MembershipFixed, Members: []ProcID{1}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCoordinator(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("NewCoordinator = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestBinaryCoordinatorFirstRound(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	start := c.Start(0)
	if hasAction(start, ActSendBeat) {
		t.Fatal("original protocol must not beat before the first round expires")
	}
	timers := actionsOf(start, ActSetTimer)
	if len(timers) != 1 || timers[0].ID != TimerRound || timers[0].Delay != 10 {
		t.Fatalf("start timers = %v, want round@10", timers)
	}
	// First timeout: initial grace (rcvd=true) keeps t=tmax and beats.
	acts := c.OnTimer(TimerRound, 10)
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].To != 1 || !beats[0].Beat.Stay {
		t.Fatalf("first round beats = %v", beats)
	}
	if c.t != 10 {
		t.Fatalf("t = %d after grace round, want 10", c.t)
	}
}

func TestRevisedCoordinatorBeatsImmediately(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10, Revised: true})
	start := c.Start(0)
	beats := actionsOf(start, ActSendBeat)
	if len(beats) != 1 || beats[0].To != 1 {
		t.Fatalf("revised start beats = %v, want one to p[1]", beats)
	}
}

func TestBinaryCoordinatorAcceleratesAndInactivates(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	c.Start(0)
	now := Tick(10)
	c.OnTimer(TimerRound, now) // grace round, t=10
	// Silence from p[1]: t decays 10→5→2→1, then p[0] inactivates.
	wantT := []Tick{5, 2, 1}
	for _, w := range wantT {
		now += c.t
		acts := c.OnTimer(TimerRound, now)
		if c.t != w {
			t.Fatalf("t = %d, want %d", c.t, w)
		}
		if !hasAction(acts, ActSendBeat) {
			t.Fatalf("round at t=%d did not beat", w)
		}
	}
	now += c.t
	acts := c.OnTimer(TimerRound, now)
	sus := actionsOf(acts, ActSuspect)
	if len(sus) != 1 || sus[0].Proc != 1 {
		t.Fatalf("suspects = %v, want p[1]", sus)
	}
	inact := actionsOf(acts, ActInactivate)
	if len(inact) != 1 || inact[0].Voluntary {
		t.Fatalf("inactivate = %v, want non-voluntary", inact)
	}
	if hasAction(acts, ActSendBeat) {
		t.Fatal("inactivating round must not beat")
	}
	if c.Status() != StatusInactive {
		t.Fatalf("status = %v, want inactive", c.Status())
	}
	// Inactivated machines are inert.
	if acts := c.OnTimer(TimerRound, now+10); acts != nil {
		t.Fatalf("inactive machine reacted: %v", acts)
	}
	if acts := c.OnBeat(Beat{From: 1, Stay: true}, now+10); acts != nil {
		t.Fatalf("inactive machine accepted beat: %v", acts)
	}
}

func TestBinaryCoordinatorBeatResetsWait(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	c.Start(0)
	c.OnTimer(TimerRound, 10)
	c.OnTimer(TimerRound, 20) // miss: t=5
	if c.t != 5 {
		t.Fatalf("t = %d, want 5", c.t)
	}
	c.OnBeat(Beat{From: 1, Stay: true}, 22)
	c.OnTimer(TimerRound, 25)
	if c.t != 10 {
		t.Fatalf("t = %d after receipt, want 10", c.t)
	}
}

// TestBinaryCoordinatorStaleBeatExtendsDetection reproduces the mechanism
// behind Figure 10(a): a reply sent just before p[1] crashes restores
// t=tmax a full round later, stretching detection to 3·tmax − tmin.
func TestBinaryCoordinatorStaleBeatExtendsDetection(t *testing.T) {
	cfg := Config{TMin: 1, TMax: 10}
	c := newBinaryP0(t, cfg)
	c.Start(0)
	c.OnTimer(TimerRound, 10)               // beats p[1]
	c.OnBeat(Beat{From: 1, Stay: true}, 10) // reply arrives instantly; p[1] crashes now
	lastBeat := Tick(10)
	now := Tick(20)
	c.OnTimer(TimerRound, now) // rcvd → t=tmax: the stale reset
	for c.Status() == StatusActive {
		now += c.t
		c.OnTimer(TimerRound, now)
	}
	detection := now - lastBeat
	if detection != 28 {
		t.Fatalf("detection interval = %d, want 28 (within bound %d)", detection, cfg.CoordinatorDetectionBound())
	}
	if detection <= 2*cfg.TMax {
		t.Fatal("scenario should exceed the 1998 paper's claimed 2·tmax bound")
	}
	if detection > cfg.CoordinatorDetectionBound() {
		t.Fatalf("detection %d exceeds corrected bound %d", detection, cfg.CoordinatorDetectionBound())
	}
}

func TestStaticCoordinatorMinRule(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		Config:     Config{TMin: 1, TMax: 10},
		Membership: MembershipFixed,
		Members:    []ProcID{1, 2, 3},
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Start(0)
	c.OnTimer(TimerRound, 10) // grace
	// Only p[2] answers.
	c.OnBeat(Beat{From: 2, Stay: true}, 12)
	acts := c.OnTimer(TimerRound, 20)
	// tm = [5, 10, 5] → t = 5, and all three still get beats.
	if c.t != 5 {
		t.Fatalf("t = %d, want min(tm)=5", c.t)
	}
	if got := len(actionsOf(acts, ActSendBeat)); got != 3 {
		t.Fatalf("beats = %d, want 3", got)
	}
	// p[1] and p[3] keep silent; p[2] answers every round. The rounds
	// shrink with the silent members' tm while p[2] stays at tmax.
	c.OnBeat(Beat{From: 2, Stay: true}, 22)
	c.OnTimer(TimerRound, 25) // tm = [2,10,2]
	if c.t != 2 {
		t.Fatalf("t = %d, want 2", c.t)
	}
	c.OnBeat(Beat{From: 2, Stay: true}, 26)
	c.OnTimer(TimerRound, 27) // tm = [1,10,1]
	if c.t != 1 {
		t.Fatalf("t = %d, want 1", c.t)
	}
	c.OnBeat(Beat{From: 2, Stay: true}, 27)
	acts = c.OnTimer(TimerRound, 28) // p1,p3 exhausted
	sus := actionsOf(acts, ActSuspect)
	if len(sus) != 2 || sus[0].Proc != 1 || sus[1].Proc != 3 {
		t.Fatalf("suspects = %v, want p[1],p[3]", sus)
	}
	if c.Status() != StatusInactive {
		t.Fatalf("status = %v, want inactive", c.Status())
	}
}

func TestExpandingCoordinatorAdmitsJoiner(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		Config:     Config{TMin: 2, TMax: 10},
		Membership: MembershipExpanding,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Start(0)
	if len(c.order) != 0 {
		t.Fatal("expanding coordinator must start with no members")
	}
	// Idle rounds with no members keep t at tmax and send nothing.
	acts := c.OnTimer(TimerRound, 10)
	if hasAction(acts, ActSendBeat) || c.t != 10 {
		t.Fatalf("idle round: %v, t=%d", acts, c.t)
	}
	// A join request is admitted silently; the ack is the next broadcast.
	if acts := c.OnBeat(Beat{From: 7, Stay: true}, 12); hasAction(acts, ActSendBeat) {
		t.Fatal("join must not be acknowledged out of band")
	}
	if got := c.order; len(got) != 1 || got[0] != 7 {
		t.Fatalf("members = %v, want [7]", got)
	}
	acts = c.OnTimer(TimerRound, 20)
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].To != 7 {
		t.Fatalf("beats = %v, want to p[7]", beats)
	}
}

func TestDynamicCoordinatorLeave(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		Config:     Config{TMin: 2, TMax: 10},
		Membership: MembershipDynamic,
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	c.Start(0)
	c.OnBeat(Beat{From: 3, Stay: true}, 1)
	c.OnBeat(Beat{From: 4, Stay: true}, 1)
	if len(c.order) != 2 {
		t.Fatalf("members = %v", c.order)
	}
	// p[3] leaves; the ack carries the same false parameter.
	acts := c.OnBeat(Beat{From: 3, Stay: false}, 5)
	beats := actionsOf(acts, ActSendBeat)
	if len(beats) != 1 || beats[0].To != 3 || beats[0].Beat.Stay {
		t.Fatalf("leave ack = %v", beats)
	}
	if got := c.order; len(got) != 1 || got[0] != 4 {
		t.Fatalf("members after leave = %v, want [4]", got)
	}
	// Leaving is permanent: a rejoin attempt is ignored...
	c.OnBeat(Beat{From: 3, Stay: true}, 6)
	if len(c.order) != 1 {
		t.Fatal("departed process rejoined")
	}
	// ...but a retried leave is re-acknowledged (ack loss tolerance).
	acts = c.OnBeat(Beat{From: 3, Stay: false}, 7)
	if got := actionsOf(acts, ActSendBeat); len(got) != 1 || got[0].Beat.Stay {
		t.Fatalf("leave retry ack = %v", acts)
	}
	// The departed process no longer drives acceleration: only p[4]
	// matters, and it answers, so p[0] never inactivates.
	now := Tick(10)
	for i := 0; i < 8; i++ {
		c.OnBeat(Beat{From: 4, Stay: true}, now)
		c.OnTimer(TimerRound, now)
		now += c.t
	}
	if c.Status() != StatusActive {
		t.Fatalf("status = %v, want active", c.Status())
	}
}

func TestCoordinatorCrashStopsEverything(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	c.Start(0)
	acts := c.Crash(3)
	if !hasAction(acts, ActCancelTimer) {
		t.Fatal("crash must cancel the round timer")
	}
	inact := actionsOf(acts, ActInactivate)
	if len(inact) != 1 || !inact[0].Voluntary {
		t.Fatalf("inactivate = %v, want voluntary", inact)
	}
	if c.Status() != StatusCrashed {
		t.Fatalf("status = %v", c.Status())
	}
	if acts := c.Crash(4); acts != nil {
		t.Fatal("double crash must be a no-op")
	}
	if acts := c.OnTimer(TimerRound, 10); acts != nil {
		t.Fatal("crashed coordinator reacted to timer")
	}
}

func TestCoordinatorIgnoresSelfAndStrangers(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	c.Start(0)
	if acts := c.OnBeat(Beat{From: 0, Stay: true}, 1); acts != nil {
		t.Fatal("self-beat accepted")
	}
	c.OnBeat(Beat{From: 42, Stay: true}, 1) // stranger: fixed membership ignores
	if len(c.order) != 1 {
		t.Fatalf("members = %v", c.order)
	}
	c.OnTimer(TimerRound, 10)
	c.OnTimer(TimerRound, 20) // no beat from p[1] → decay
	if c.t != 5 {
		t.Fatal("stranger beat must not count as p[1]'s reply")
	}
}

func TestCoordinatorStartIdempotent(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 1, TMax: 10})
	if acts := c.Start(0); len(acts) == 0 {
		t.Fatal("first Start returned nothing")
	}
	if acts := c.Start(0); acts != nil {
		t.Fatal("second Start must be a no-op")
	}
}

func TestTwoPhaseCoordinatorDropsToTMin(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 4, TMax: 10, TwoPhase: true})
	c.Start(0)
	c.OnTimer(TimerRound, 10) // grace
	c.OnTimer(TimerRound, 20) // miss → t=tmin
	if c.t != 4 {
		t.Fatalf("t = %d, want tmin=4", c.t)
	}
	acts := c.OnTimer(TimerRound, 24) // second miss → inactivate
	if !hasAction(acts, ActInactivate) || c.Status() != StatusInactive {
		t.Fatalf("two-phase second miss: %v, status %v", acts, c.Status())
	}
}

func TestMembershipString(t *testing.T) {
	if MembershipFixed.String() != "fixed" ||
		MembershipExpanding.String() != "expanding" ||
		MembershipDynamic.String() != "dynamic" {
		t.Fatal("Membership.String mismatch")
	}
	if Membership(9).String() == "" {
		t.Fatal("unknown membership must render")
	}
}
