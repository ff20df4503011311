package models

import (
	"fmt"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

// cutCheck is a cut and the goals of the searches that stop at it.
type cutCheck struct {
	name  string
	cut   func(*ta.State) bool
	goals []func(*ta.State) bool
}

// cutChecks are the model's two cuts: R1's, and the one R2 and R3 share.
func (m *Model) cutChecks() []cutCheck {
	return []cutCheck{
		{"R1's cut", m.cut([]Property{R1}), []func(*ta.State) bool{m.R1Violated}},
		{"the R2/R3 cut", m.cut([]Property{R2, R3}), []func(*ta.State) bool{m.R2Violated, m.R3Violated}},
	}
}

// cutOracle is a goal predicate for the exact, uncut checker: broken(s)
// reports that a cut holds at s although one of its goals does too, or
// although a successor of s is outside it. Explored with no cut and no
// coverage the goal is evaluated on every reachable state of the network,
// so "unreachable" proves each cut closed under successors and free of
// goal states: dropping it drops only whole subtrees without a witness.
type cutOracle struct {
	checks []cutCheck
	ctx    *ta.SuccCtx
	succ   []ta.Transition
	why    string
}

func (o *cutOracle) broken(s *ta.State) bool {
	for _, c := range o.checks {
		if !c.cut(s) {
			continue
		}
		for i, goal := range c.goals {
			if goal(s) {
				o.why = fmt.Sprintf("%s holds on a state its goal %d holds on", c.name, i)
				return true
			}
		}
		o.succ = o.ctx.Successors(s, o.succ[:0])
		for k := range o.succ {
			if tr := &o.succ[k]; !c.cut(&tr.Target) {
				o.why = fmt.Sprintf("%s holds, but not after %q to %v", c.name, tr.Label, tr.Target)
				return true
			}
		}
	}
	return false
}

// checkCuts runs the cut oracle on m's network: over every reachable state
// (loss-free ones if lossless), or a breadth-first prefix with prefix set.
func checkCuts(m *Model, checks []cutCheck, lossless, prefix bool) (states int, failure string, err error) {
	var opts mc.Options
	if lossless {
		opts.Prune = m.MessageLost
	}
	o := &cutOracle{checks: checks, ctx: m.Net.NewSuccCtx()}
	return runOracle(m.Net, o.broken, &o.why, prefix, opts)
}

// TestCutIsAbsorbing is the oracle for the verdict path's cuts: on every
// model of the quotient and symmetry grids, each cut holds on no goal state
// and every successor of a cut state is cut. At full scale (fullScale) it
// walks every reachable state; otherwise a breadth-first prefix of each.
func TestCutIsAbsorbing(t *testing.T) {
	t.Parallel()
	total := 0
	for _, grid := range [][]quotientCase{quotientGrid(), symmetryGrid()} {
		for _, tc := range grid {
			m, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			states, failure, err := checkCuts(m, m.cutChecks(), tc.lossless, !fullScale())
			if err != nil {
				t.Fatal(err)
			}
			if failure != "" {
				t.Errorf("%+v lossless=%v: %s", tc.cfg, tc.lossless, failure)
			}
			total += states
		}
	}
	t.Logf("%d unreduced states checked (full scale: %v)", total, fullScale())
}

// TestCutOracleCatchesMutants: the cut oracle rejects R2's and R3's cut
// widened to "p[0] inactive", which holds where R3 is violated, and R1's cut
// without "no monitor in Error", which holds once p[0] stops after an R1
// violation. Each must fail on some model of the quotient grid.
func TestCutOracleCatchesMutants(t *testing.T) {
	for _, mutant := range []struct {
		name  string
		check func(m *Model) cutCheck
	}{
		{"R2/R3 cut widened to p[0] inactive", func(m *Model) cutCheck {
			return cutCheck{"the widened cut", func(s *ta.State) bool {
				return m.MessageLost(s) || s.Vars[m.vActive0] == 0
			}, []func(*ta.State) bool{m.R2Violated, m.R3Violated}}
		}},
		{"R1 cut without no-Error", func(m *Model) cutCheck {
			return cutCheck{"the Error-blind cut", func(s *ta.State) bool {
				return s.Vars[m.vActive0] == 0
			}, []func(*ta.State) bool{m.R1Violated}}
		}},
	} {
		caught := ""
		for _, tc := range quotientGrid() {
			m, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, failure, err := checkCuts(m, []cutCheck{mutant.check(m)}, tc.lossless, testing.Short())
			if err != nil {
				t.Fatal(err)
			}
			if failure != "" {
				caught = fmt.Sprintf("%+v: %s", tc.cfg, failure)
				break
			}
		}
		if caught == "" {
			t.Errorf("%s: the oracle accepts it on every model of the grid", mutant.name)
			continue
		}
		t.Logf("%s caught at %s", mutant.name, caught)
	}
}
