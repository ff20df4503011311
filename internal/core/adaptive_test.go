package core

import (
	"math"
	"testing"
)

// adaptiveState is a snapshot of an adaptive coordinator's estimator.
type adaptiveState struct {
	// Level is the current envelope level.
	Level int
	// TMin and TMax are the current operating point.
	TMin, TMax Tick
	// LossMilli is the windowed loss estimate in thousandths.
	LossMilli int64
	// Window holds the retained samples in ring order.
	Window []lossSample
}

// level returns a's current envelope level.
func level(a *AdaptiveCoordinator) int { return a.level }

// snapshot reads a's estimator state.
func snapshot(a *AdaptiveCoordinator) adaptiveState {
	st := adaptiveState{Level: a.level, Window: a.ring[:a.filled]}
	if a.sumExp > 0 {
		st.LossMilli = a.sumMiss * 1000 / a.sumExp
	}
	st.TMin, st.TMax = a.opts.Envelope.Point(st.Level)
	return st
}

func TestEnvelopeValidate(t *testing.T) {
	tests := []struct {
		name string
		env  Envelope
		ok   bool
	}{
		{"valid", Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 4, TMaxHi: 32}, true},
		{"degenerate point", Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 16, TMaxHi: 16}, true},
		{"zero tmin", Envelope{TMinLo: 0, TMinHi: 2, TMaxLo: 4, TMaxHi: 32}, false},
		{"tmin inverted", Envelope{TMinLo: 3, TMinHi: 2, TMaxLo: 4, TMaxHi: 32}, false},
		{"tmin above tmax", Envelope{TMinLo: 1, TMinHi: 8, TMaxLo: 4, TMaxHi: 32}, false},
		{"tmax inverted", Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 32, TMaxHi: 4}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.env.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestEnvelopeLevels(t *testing.T) {
	tests := []struct {
		env    Envelope
		levels int
	}{
		{Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 16, TMaxHi: 16}, 1},
		{Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 16}, 2},
		{Envelope{TMinLo: 1, TMinHi: 4, TMaxLo: 4, TMaxHi: 32}, 4},
		{Envelope{TMinLo: 1, TMinHi: 4, TMaxLo: 4, TMaxHi: 33}, 5}, // overshoot clamps
	}
	for _, tt := range tests {
		if got := tt.env.Levels(); got != tt.levels {
			t.Errorf("%+v.Levels() = %d, want %d", tt.env, got, tt.levels)
		}
	}
}

// TestEnvelopeBounds: an envelope whose tmax doubling would pass the top
// of Tick's range still has finitely many levels, and no level's point
// passes its Hi bound. The first row is the last TMaxLo whose double fits,
// the second one more; the third clamps tmin at the same limit.
func TestEnvelopeBounds(t *testing.T) {
	const top = Tick(math.MaxInt64)
	for _, tc := range []struct {
		env  Envelope
		want []Tick // tmax per level
	}{
		{Envelope{TMinLo: 1, TMinHi: 1, TMaxLo: top / 2, TMaxHi: top}, []Tick{top / 2, top - 1, top}},
		{Envelope{TMinLo: 1, TMinHi: 1, TMaxLo: top/2 + 1, TMaxHi: top}, []Tick{top/2 + 1, top}},
		{Envelope{TMinLo: top/2 + 1, TMinHi: top/2 + 1, TMaxLo: top/2 + 1, TMaxHi: top}, []Tick{top/2 + 1, top}},
	} {
		if err := tc.env.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc.env, err)
		}
		if got := tc.env.Levels(); got != len(tc.want) {
			t.Fatalf("%+v.Levels() = %d, want %d", tc.env, got, len(tc.want))
		}
		for lv, want := range tc.want {
			tmin, tmax := tc.env.Point(lv)
			if tmax != want || tmin != tc.env.TMinLo {
				t.Errorf("%+v.Point(%d) = (%d, %d), want (%d, %d)", tc.env, lv, tmin, tmax, tc.env.TMinLo, want)
			}
		}
	}
}

func TestEnvelopePoint(t *testing.T) {
	env := Envelope{TMinLo: 1, TMinHi: 3, TMaxLo: 4, TMaxHi: 33}
	// 5 levels: tmax 4, 8, 16, 32, 33(clamped); tmin 1, 2, 3(clamped)...
	want := []struct{ tmin, tmax Tick }{
		{1, 4}, {2, 8}, {3, 16}, {3, 32}, {3, 33},
	}
	if got := env.Levels(); got != len(want) {
		t.Fatalf("Levels = %d, want %d", got, len(want))
	}
	for lv, w := range want {
		tmin, tmax := env.Point(lv)
		if tmin != w.tmin || tmax != w.tmax {
			t.Errorf("Point(%d) = (%d, %d), want (%d, %d)", lv, tmin, tmax, w.tmin, w.tmax)
		}
		// Every level must be a valid Config on its own.
		if err := (Config{TMin: tmin, TMax: tmax}).Validate(); err != nil {
			t.Errorf("Point(%d) invalid as Config: %v", lv, err)
		}
	}
	// Out-of-range levels clamp.
	tmin, tmax := env.Point(-1)
	if tmin != 1 || tmax != 4 {
		t.Errorf("Point(-1) = (%d, %d), want level-0 point", tmin, tmax)
	}
	tmin, tmax = env.Point(99)
	if tmin != 3 || tmax != 33 {
		t.Errorf("Point(99) = (%d, %d), want top point", tmin, tmax)
	}
}

func TestEnvelopeResponderConfig(t *testing.T) {
	env := Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 4, TMaxHi: 32}
	cfg := env.ResponderConfig(Config{TwoPhase: true, Fixed: true})
	if cfg.TMin != 1 || cfg.TMax != 32 {
		t.Fatalf("ResponderConfig = (%d, %d), want (1, 32)", cfg.TMin, cfg.TMax)
	}
	if !cfg.TwoPhase || !cfg.Fixed {
		t.Fatalf("ResponderConfig dropped variant flags: %+v", cfg)
	}
}

func TestAdaptiveOptionsValidate(t *testing.T) {
	env := Envelope{TMinLo: 1, TMinHi: 2, TMaxLo: 4, TMaxHi: 32}
	tests := []struct {
		name string
		opts AdaptiveOptions
		ok   bool
	}{
		{"defaults", AdaptiveOptions{Envelope: env}, true},
		{"explicit", AdaptiveOptions{Envelope: env, Window: 4, WidenAt: 0.4, TightenAt: 0.1, HoldRounds: 6}, true},
		{"bad envelope", AdaptiveOptions{}, false},
		{"widen above one", AdaptiveOptions{Envelope: env, WidenAt: 1.5}, false},
		{"widen negative", AdaptiveOptions{Envelope: env, WidenAt: -0.5}, false},
		{"tighten above widen", AdaptiveOptions{Envelope: env, WidenAt: 0.3, TightenAt: 0.4}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.opts.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// newAdaptiveP0 builds an adaptive coordinator over fixed members 1..n.
func newAdaptiveP0(t *testing.T, opts AdaptiveOptions, n int) *AdaptiveCoordinator {
	t.Helper()
	members := make([]ProcID, n)
	for i := range members {
		members[i] = ProcID(i + 1)
	}
	a, err := NewAdaptiveCoordinator(CoordinatorConfig{
		Membership: MembershipFixed,
		Members:    members,
	}, opts)
	if err != nil {
		t.Fatalf("NewAdaptiveCoordinator: %v", err)
	}
	return a
}

// runRound drives one full round: beats from the given members arrive,
// then the round timer fires.
func runRound(a *AdaptiveCoordinator, replies []ProcID, now Tick) []Action {
	for _, id := range replies {
		a.OnBeat(Beat{From: id, Stay: true}, now)
	}
	return a.OnTimer(TimerRound, now)
}

func TestAdaptiveWidensUnderLoss(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32} // 3 levels
	a := newAdaptiveP0(t, AdaptiveOptions{Envelope: env, Window: 4}, 2)
	a.Start(0)
	if lv := level(a); lv != 0 {
		t.Fatalf("initial level = %d, want 0", lv)
	}
	tmin, tmax := a.opts.Envelope.Point(level(a))
	if tmin != 2 || tmax != 8 {
		t.Fatalf("initial point = (%d, %d), want (2, 8)", tmin, tmax)
	}

	// The first round is a grace round (rcvd starts true): the estimator
	// sees a clean sample and must not move.
	if acts := runRound(a, nil, 8); hasAction(acts, ActRetune) {
		t.Fatalf("retune on the grace round: %v", acts)
	}

	// Both members silent: the window now reads (2,0),(2,2) = 50% loss,
	// which meets WidenAt.
	acts := runRound(a, nil, 16)
	retunes := actionsOf(acts, ActRetune)
	if len(retunes) != 1 {
		t.Fatalf("expected one retune action, got %d in %v", len(retunes), acts)
	}
	if retunes[0].TMin != 2 || retunes[0].TMax != 16 {
		t.Fatalf("retune point = (%d, %d), want (2, 16)", retunes[0].TMin, retunes[0].TMax)
	}
	if level(a) != 1 {
		t.Fatalf("level after widen = %d, want 1", level(a))
	}
	// The widen converts the round into a grace round: no suspects even
	// though both members were silent, and beats go out again.
	if hasAction(acts, ActSuspect) || hasAction(acts, ActInactivate) {
		t.Fatalf("widen round must not suspect: %v", acts)
	}
	if got := len(actionsOf(acts, ActSendBeat)); got != 2 {
		t.Fatalf("expected 2 beats after grace round, got %d", got)
	}

	// Sustained silence escalates to the top level and stays clamped:
	// the post-widen window holds a single all-missed sample, 100% loss.
	runRound(a, nil, 32)
	if level(a) != 2 {
		t.Fatalf("level = %d, want 2 (top)", level(a))
	}
	// At the top of the envelope further loss holds saturated grace
	// rounds: each round retunes to the same (clamped) point instead of
	// accelerating toward a false confirmation.
	for i := 0; i < 8; i++ {
		acts = runRound(a, nil, Tick(64+32*i))
		retunes := actionsOf(acts, ActRetune)
		if len(retunes) != 1 || retunes[0].TMax != 32 {
			t.Fatalf("saturated round %d: want grace retune at (2, 32), got %v", i, acts)
		}
		if hasAction(acts, ActSuspect) || hasAction(acts, ActInactivate) {
			t.Fatalf("false confirmation at the top of the envelope: %v", acts)
		}
	}
	if level(a) != 2 {
		t.Fatalf("level left the envelope: %d", level(a))
	}
}

func TestAdaptiveFalseConfirmWithoutWidening(t *testing.T) {
	// Same silence as TestAdaptiveWidensUnderLoss against a plain
	// coordinator at the level-0 point: after the grace round, tmin=2/
	// tmax=8 decays 8 -> 4 -> 2 -> suspect on the fourth timeout. The
	// adaptive wrapper above survived the same run — that contrast is the
	// point.
	c := newBinaryP0(t, Config{TMin: 2, TMax: 8})
	c.Start(0)
	var acts []Action
	for i := 0; i < 4; i++ {
		acts = c.OnTimer(TimerRound, Tick(8*(i+1)))
	}
	if !hasAction(acts, ActSuspect) {
		t.Fatalf("plain coordinator should suspect under the same loss: %v", acts)
	}
}

func TestAdaptiveTightensAfterHold(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	a := newAdaptiveP0(t, AdaptiveOptions{Envelope: env, Window: 2, HoldRounds: 3}, 1)
	a.Start(0)
	runRound(a, nil, 8)  // grace round, clean sample
	runRound(a, nil, 16) // (1,0),(1,1): 50% loss, widen to level 1
	if level(a) != 1 {
		t.Fatalf("level = %d, want 1", level(a))
	}
	// Clean rounds: no tighten until the hold streak is met.
	for i := 0; i < 2; i++ {
		acts := runRound(a, []ProcID{1}, Tick(16*(i+2)))
		if hasAction(acts, ActRetune) {
			t.Fatalf("tightened before HoldRounds: round %d, %v", i, acts)
		}
	}
	acts := runRound(a, []ProcID{1}, 64)
	retunes := actionsOf(acts, ActRetune)
	if len(retunes) != 1 || retunes[0].TMax != 8 {
		t.Fatalf("expected tighten to (2, 8), got %v", acts)
	}
	if level(a) != 0 {
		t.Fatalf("level after tighten = %d, want 0", level(a))
	}
}

func TestAdaptiveHysteresisMiddlingLossHolds(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	a := newAdaptiveP0(t, AdaptiveOptions{Envelope: env, Window: 4, WidenAt: 0.5, TightenAt: 0.125, HoldRounds: 2}, 4)
	a.Start(0)
	// One of four members missing each round: 25% loss sits between the
	// thresholds — the level must not move in either direction.
	for i := 0; i < 8; i++ {
		acts := runRound(a, []ProcID{1, 2, 3}, Tick(8*(i+1)))
		if hasAction(acts, ActRetune) {
			t.Fatalf("retune inside the hysteresis band at round %d: %v", i, acts)
		}
	}
	if level(a) != 0 {
		t.Fatalf("level = %d, want 0", level(a))
	}
}

func TestAdaptiveSnapshot(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	a := newAdaptiveP0(t, AdaptiveOptions{Envelope: env, Window: 4}, 4)
	a.Start(0)
	runRound(a, nil, 8)                // grace round: (4,0)
	runRound(a, []ProcID{1, 2, 3}, 16) // (4,1)
	st := snapshot(a)
	if st.Level != 0 {
		t.Fatalf("Snapshot.Level = %d, want 0", st.Level)
	}
	if st.TMin != 2 || st.TMax != 8 {
		t.Fatalf("Snapshot point = (%d, %d), want (2, 8)", st.TMin, st.TMax)
	}
	if st.LossMilli != 125 { // 1 missed of 8 expected
		t.Fatalf("Snapshot.LossMilli = %d, want 125", st.LossMilli)
	}
	if len(st.Window) != 2 {
		t.Fatalf("Snapshot.Window = %v, want two samples", st.Window)
	}

	// Silence until the widen threshold; the retune resets the window.
	runRound(a, nil, 24) // window 5/12 missed, below WidenAt
	runRound(a, nil, 32) // window 9/16 missed: widen
	st = snapshot(a)
	if st.Level != 1 {
		t.Fatalf("Snapshot.Level = %d, want 1", st.Level)
	}
	if len(st.Window) != 0 || st.LossMilli != 0 {
		t.Fatalf("window not reset on retune: %+v", st)
	}
}

func TestAdaptiveWindowEviction(t *testing.T) {
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	// Window 2, WidenAt out of reach so no retune interferes.
	a := newAdaptiveP0(t, AdaptiveOptions{Envelope: env, Window: 2, WidenAt: 0.99}, 2)
	a.Start(0)
	runRound(a, nil, 8)             // grace: (2,0)
	runRound(a, nil, 16)            // (2,2)
	runRound(a, []ProcID{1, 2}, 24) // (2,0) — evicts the grace sample
	if st := snapshot(a); st.LossMilli != 500 {
		t.Fatalf("LossMilli = %d with (2,2),(2,0) in window, want 500", st.LossMilli)
	}
	runRound(a, []ProcID{1, 2}, 32) // (2,0) — evicts (2,2)
	if st := snapshot(a); st.LossMilli != 0 {
		t.Fatalf("LossMilli = %d after lossy sample evicted, want 0", st.LossMilli)
	}
}

func TestAdaptiveRetuneWhileDegradedMembership(t *testing.T) {
	// Expanding membership with no members yet: rounds contribute no
	// samples and never retune.
	env := Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 8, TMaxHi: 32}
	a, err := NewAdaptiveCoordinator(CoordinatorConfig{
		Membership: MembershipExpanding,
	}, AdaptiveOptions{Envelope: env})
	if err != nil {
		t.Fatalf("NewAdaptiveCoordinator: %v", err)
	}
	a.Start(0)
	for i := 0; i < 5; i++ {
		if acts := a.OnTimer(TimerRound, Tick(8*(i+1))); hasAction(acts, ActRetune) {
			t.Fatalf("retune with empty membership: %v", acts)
		}
	}
	if st := snapshot(a); len(st.Window) != 0 {
		t.Fatalf("empty rounds must not produce samples: %v", st.Window)
	}
}

func TestCoordinatorRetuneGraceRound(t *testing.T) {
	c := newBinaryP0(t, Config{TMin: 2, TMax: 8})
	c.Start(0)
	c.OnTimer(TimerRound, 8)  // grace round
	c.OnTimer(TimerRound, 16) // member 1 silent: tm decays 8 -> 4
	if err := c.Retune(2, 16); err != nil {
		t.Fatalf("Retune: %v", err)
	}
	if c.t != 16 {
		t.Fatalf("round length = %d, want 16", c.t)
	}
	// The member's budget was reset and its rcvd flag raised: four more
	// silent rounds before any suspicion (grace, then 16 -> 8 -> 4 -> 2).
	for i := 0; i < 4; i++ {
		if acts := c.OnTimer(TimerRound, Tick(32+16*i)); hasAction(acts, ActSuspect) {
			t.Fatalf("suspect on round %d after retune grace: %v", i, acts)
		}
	}
	if acts := c.OnTimer(TimerRound, 120); !hasAction(acts, ActSuspect) {
		t.Fatalf("expected suspicion once the retuned budget decayed: %v", acts)
	}
	if err := c.Retune(0, 5); err == nil {
		t.Fatal("Retune accepted an invalid point")
	}
}
