package models

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/ta"
)

// TestAnalyzeAllVariantsClean runs the structural model analysis over
// every variant, original and corrected, with the R1 monitors and with the
// shutdown monitor: the shipped models must be free of undeclared
// footprints, dead locations, dead channels, unsatisfiable guards, useless
// resets, and cap-soundness violations. This is the test behind the
// `hbcheck -analyze` CI gate.
func TestAnalyzeAllVariantsClean(t *testing.T) {
	t.Parallel()
	for _, v := range Variants {
		for _, fixed := range []bool{false, true} {
			n := 1
			if v == Static || v == Expanding || v == Dynamic {
				n = 2
			}
			m, err := Build(Config{TMin: 1, TMax: 3, Variant: v, N: n, Fixed: fixed})
			if err != nil {
				t.Fatalf("%v fixed=%v: %v", v, fixed, err)
			}
			for _, p := range m.Net.Analyze() {
				t.Errorf("%v fixed=%v: %s", v, fixed, p)
			}
			sliced := m.Cfg
			sliced.NoMonitor = true
			sm, err := BuildWithShutdownMonitor(sliced, sliced.ShutdownBound())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range sm.Net.Analyze() {
				t.Errorf("%v fixed=%v shutdown: %s", v, fixed, p)
			}
		}
	}
	// The isolated processes of Figures 1 and 2.
	for _, tm := range [][2]int32{{1, 2}, {5, 10}} {
		for name, build := range map[string]func(int32, int32) (*ta.Network, error){
			"p0": BuildIsolatedP0, "p1": BuildIsolatedP1,
		} {
			net, err := build(tm[0], tm[1])
			if err != nil {
				t.Fatalf("isolated %s %v: %v", name, tm, err)
			}
			for _, p := range net.Analyze() {
				t.Errorf("isolated %s %v: %s", name, tm, p)
			}
		}
	}
}

// TestAnalyzePreflightCost pins the EXPERIMENTS.md claim that the
// -analyze pre-flight is negligible next to any exploration that is
// itself expensive. The probe grid is polynomial in the model's size —
// per guard or invariant, base configurations and single and pairwise
// scans over every location, every clock value 0..cap and every variable
// candidate, the cap check only over the clocks its footprint reads — the
// BFS exponential in its behavior: static at n=3 analyzes in well under a second while its BFS
// passes 8M states even on the quotient Verify explores. The smallest
// table configurations explore in tens of milliseconds — there the
// pre-flight is a fixed sub-second cost, not a relative saving — so the
// test uses the n=3 model, capped at 100k states to bound suite time: even
// that truncated prefix, about a hundredth of the exploration, must
// outweigh the analysis.
func TestAnalyzePreflightCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	cfg := Config{TMin: 2, TMax: 10, Variant: Static, N: 3, Fixed: true}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if p := m.Net.Analyze(); len(p) > 0 {
		t.Fatalf("unexpected problems: %v", p)
	}
	analyzeTime := time.Since(start)
	if analyzeTime > 5*time.Second {
		t.Errorf("analysis took %v; the pre-flight must stay sub-second-scale per model", analyzeTime)
	}

	start = time.Now()
	// Even the quotient Verify explores passes 8M states; the capped run
	// is a lower bound on the BFS cost. Hitting the limit is the expected
	// outcome.
	_, err = Verify(cfg, R1, mc.Options{MaxStates: 100_000})
	verifyTime := time.Since(start)
	if err != nil && !strings.Contains(err.Error(), "state limit exceeded") {
		t.Fatal(err)
	}
	t.Logf("analyze %v, verify (first <=100k states) %v", analyzeTime, verifyTime)
	if analyzeTime > verifyTime {
		t.Errorf("analysis (%v) slower than the BFS prefix it gates (%v)", analyzeTime, verifyTime)
	}
}
