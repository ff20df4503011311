package models

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"binary", Config{TMin: 1, TMax: 10, Variant: Binary, N: 1}, true},
		{"equal bounds", Config{TMin: 10, TMax: 10, Variant: Dynamic, N: 1}, true},
		{"zero tmin", Config{TMin: 0, TMax: 10, Variant: Binary, N: 1}, false},
		{"tmax below tmin", Config{TMin: 5, TMax: 4, Variant: Binary, N: 1}, false},
		{"no variant", Config{TMin: 1, TMax: 10, N: 1}, false},
		{"zero participants", Config{TMin: 1, TMax: 10, Variant: Static, N: 0}, false},
		// A Members set holds p[0] and 63 participants.
		{"63 participants", Config{TMin: 1, TMax: 10, Variant: Static, N: 63}, true},
		{"64 participants", Config{TMin: 1, TMax: 10, Variant: Static, N: 64}, false},
		// The watchdog clock's cap is 3·tmax − tmin + 1; ta.MaxClockCap
		// (32767) is the most a state key holds.
		{"watchdog cap at the key limit", Config{TMin: 3, TMax: 10923, Variant: Binary, N: 1}, true},
		{"watchdog cap one past the key limit", Config{TMin: 2, TMax: 10923, Variant: Binary, N: 1}, false},
		// Corrected bounds: the R1 monitor's 3·tmax − tmin + 2 is the largest.
		{"monitor cap at the key limit", Config{TMin: 1, TMax: 10922, Variant: Dynamic, N: 1, Fixed: true}, true},
		{"monitor cap past the key limit", Config{TMin: 1, TMax: 10923, Variant: Dynamic, N: 1, Fixed: true}, false},
		{"same config without the monitor", Config{TMin: 1, TMax: 10923, Variant: Dynamic, N: 1, Fixed: true, NoMonitor: true}, true},
		{"hbcheck -tmax 20000", Config{TMin: 1, TMax: 20000, Variant: Binary, N: 1}, false},
		{"watchdog tmax past the key limit", Config{TMin: 1, TMax: 10, WatchdogTMax: 40000, Variant: Static, N: 2}, false},
		{"tmax that would overflow the bound arithmetic", Config{TMin: 1, TMax: math.MaxInt32, Variant: Expanding, N: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Build(tt.cfg)
			if (err == nil) != tt.ok {
				t.Fatalf("Build = %v, want ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrConfig) {
				t.Fatalf("error %v is not ErrConfig", err)
			}
		})
	}
}

func TestBinaryVariantsForceSingleParticipant(t *testing.T) {
	for _, v := range []Variant{Binary, RevisedBinary, TwoPhase} {
		m, err := Build(Config{TMin: 1, TMax: 10, Variant: v, N: 5})
		if err != nil {
			t.Fatalf("Build(%v): %v", v, err)
		}
		if len(m.ps) != 1 {
			t.Fatalf("%v built %d participants, want 1", v, len(m.ps))
		}
	}
}

func TestBoundsSelection(t *testing.T) {
	orig := Config{TMin: 4, TMax: 10, Variant: Expanding, N: 1}
	if orig.responderBound() != 26 || orig.joinerBound() != 26 || orig.DetectionBound() != 20 {
		t.Fatalf("original bounds: %d %d %d", orig.responderBound(), orig.joinerBound(), orig.DetectionBound())
	}
	fixed := orig
	fixed.Fixed = true
	if fixed.responderBound() != 20 || fixed.joinerBound() != 24 || fixed.DetectionBound() != 26 {
		t.Fatalf("fixed bounds: %d %d %d", fixed.responderBound(), fixed.joinerBound(), fixed.DetectionBound())
	}
	// Fixed R1 bound collapses to 2·tmax when 2·tmin > tmax.
	tight := Config{TMin: 9, TMax: 10, Variant: Binary, N: 1, Fixed: true}
	if tight.DetectionBound() != 20 {
		t.Fatalf("fixed tight r1 bound = %d, want 20", tight.DetectionBound())
	}
	tp := Config{TMin: 4, TMax: 10, Variant: TwoPhase, N: 1, Fixed: true}
	if tp.DetectionBound() != 24 {
		t.Fatalf("fixed two-phase r1 bound = %d, want 24", tp.DetectionBound())
	}
}

func TestVariantAndPropertyStrings(t *testing.T) {
	if Binary.String() != "binary" || Dynamic.String() != "dynamic" || Variant(42).String() == "" {
		t.Fatal("Variant.String mismatch")
	}
	if R1.String() != "R1" || R3.String() != "R3" || Property(9).String() == "" {
		t.Fatal("Property.String mismatch")
	}
}

// TestNoDeadlocks: the composed models must never reach a configuration
// with no successors — every state either acts or lets time pass. A
// deadlock would indicate a synchronisation bug (e.g. a committed location
// with no enabled edge). The goal reads the clocks through Successors, so
// the search is exact.
func TestNoDeadlocks(t *testing.T) {
	t.Parallel()
	configs := []Config{
		{TMin: 2, TMax: 4, Variant: Binary, N: 1},
		{TMin: 4, TMax: 4, Variant: Binary, N: 1},
		{TMin: 2, TMax: 4, Variant: RevisedBinary, N: 1},
		{TMin: 2, TMax: 4, Variant: TwoPhase, N: 1},
		{TMin: 2, TMax: 4, Variant: Static, N: 2},
		{TMin: 2, TMax: 4, Variant: Expanding, N: 1},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 1},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 1, Fixed: true},
		{TMin: 4, TMax: 4, Variant: Dynamic, N: 1, Fixed: true},
	}
	for _, cfg := range configs {
		m, err := Build(cfg)
		if err != nil {
			t.Fatalf("Build(%+v): %v", cfg, err)
		}
		var buf []ta.Transition
		deadlock := func(s *ta.State) bool {
			buf = m.Net.Successors(s, buf[:0])
			return len(buf) == 0
		}
		res, err := exactCheck(m.Net, deadlock, mc.Options{MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%v: %v", cfg.Variant, err)
		}
		if res.Reachable {
			t.Fatalf("%+v: deadlock reachable", cfg)
		}
	}
}

// TestLostFlagMonotone: once raised, lostMsg stays raised (the R2/R3
// pruning relies on this).
func TestLostFlagMonotone(t *testing.T) {
	m, err := Build(Config{TMin: 2, TMax: 4, Variant: Binary, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf []ta.Transition
	violates := func(s *ta.State) bool {
		if s.Vars[m.vLost] != 1 {
			return false
		}
		buf = m.Net.Successors(s, buf[:0])
		for _, tr := range buf {
			if tr.Target.Vars[m.vLost] != 1 {
				return true
			}
		}
		return false
	}
	res, err := mc.CheckReachability(m.Net, violates, mc.Options{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("lostMsg can be cleared")
	}
}

// TestFaultFreeRunsForever: with loss edges pruned away and no crashes, no
// process is ever inactivated in the original binary protocol when
// tmin < tmax (the boundary race needs tmin == tmax).
func TestFaultFreeRunsForever(t *testing.T) {
	m, err := Build(Config{TMin: 2, TMax: 4, Variant: Binary, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	lost := m.vLost
	bad := func(s *ta.State) bool {
		if s.Vars[lost] == 1 {
			return false
		}
		crashed := int(s.Locs[m.p0.aut]) == m.p0.vInact ||
			int(s.Locs[m.ps[0].aut]) == m.ps[0].vInact
		if crashed {
			return false
		}
		return m.P0NVInactivated(s) || m.ParticipantNVInactivated(s, 0)
	}
	// Prune lossy and crashed branches: what remains is the fault-free
	// behaviour.
	prune := func(s *ta.State) bool {
		return s.Vars[lost] == 1 ||
			int(s.Locs[m.p0.aut]) == m.p0.vInact ||
			int(s.Locs[m.ps[0].aut]) == m.ps[0].vInact
	}
	res, err := mc.CheckReachability(m.Net, bad, mc.Options{MaxStates: 2_000_000, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reachable {
		t.Fatal("fault-free binary run inactivated a process")
	}
}

func TestMonitorAllBuildsAllMonitors(t *testing.T) {
	one, err := Build(Config{TMin: 2, TMax: 4, Variant: Static, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Build(Config{TMin: 2, TMax: 4, Variant: Static, N: 3, MonitorAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.mons) != 1 || len(all.mons) != 3 {
		t.Fatalf("monitors: default %d (want 1), all %d (want 3)", len(one.mons), len(all.mons))
	}
}

func TestViolationUnknownProperty(t *testing.T) {
	m, err := Build(Config{TMin: 1, TMax: 2, Variant: Binary, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Violation(Property(9)); err == nil {
		t.Fatal("unknown property accepted")
	}
	if _, err := m.Verify(Property(9), mc.Options{}); err == nil {
		t.Fatal("Verify with unknown property accepted")
	}
}

func TestIsolatedP0StateSpace(t *testing.T) {
	net, err := BuildIsolatedP0(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	states, trans, err := countStates(net, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if states < 5 || states > 200 {
		t.Fatalf("isolated p0 states = %d, expected a small space", states)
	}
	if trans <= states {
		t.Fatalf("transitions = %d for %d states", trans, states)
	}
	if _, err := BuildIsolatedP0(0, 2); err == nil {
		t.Fatal("bad constants accepted")
	}
}

func TestIsolatedP1StateSpace(t *testing.T) {
	net, err := BuildIsolatedP1(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	states, _, err := countStates(net, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if states < 5 || states > 200 {
		t.Fatalf("isolated p1 states = %d", states)
	}
	if _, err := BuildIsolatedP1(3, 2); err == nil {
		t.Fatal("bad constants accepted")
	}
	// Its watchdog counts to 3·tmax − tmin: an error, not ta.Clock's panic.
	if _, err := BuildIsolatedP1(1, 20000); !errors.Is(err, ErrConfig) {
		t.Fatalf("watchdog past the key limit: %v, want ErrConfig", err)
	}
}

// countStates explores the whole reachable space of n and returns its
// size.
func countStates(n *ta.Network, opts mc.Options) (states, transitions int, err error) {
	res, err := mc.CheckReachability(n, nil, opts)
	return res.StatesExplored, res.TransitionsExplored, err
}

// TestInitialObservables: the observables a run starts from, which the
// stream monitor starts its vector at, are what the model reads off its
// initial state — up to the 63 participants a Members set holds.
func TestInitialObservables(t *testing.T) {
	for _, cfg := range []Config{
		{TMin: 1, TMax: 2, Variant: Binary, N: 1},
		{TMin: 1, TMax: 2, Variant: Dynamic, N: 3},
		{TMin: 1, TMax: 2, Variant: Static, N: 63},
	} {
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := m.Net.Initial()
		if got, want := m.Observe(&s), cfg.Initial(); got != want {
			t.Errorf("%v n=%d: model observes %+v, Initial is %+v", cfg.Variant, cfg.N, got, want)
		}
	}
}
