package models

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
)

// A goal search covers on the lower-bound clocks ta derives
// (ta.Network.LowerClocks, mc.CheckReachability): it skips a state when it
// has stored one that differs only by larger values of those clocks. That
// is sound when the larger simulates the smaller and no predicate the
// verdict path evaluates tells them apart; the oracle here checks both on
// every reachable state.

// simOracle is a goal predicate for the exact checker: broken(s) reports
// that raising one of the clocks lower at s — by one, and past every
// constant — fails to give a state that covers s for one step. It holds
// when a predicate tells the raised state from s, or when a transition of
// s has none of the raised state with its label and delay flag into a state
// that covers its target: equal but for values of the clocks lower at
// least the target's. "Unreachable" is what coverage needs: a coverer's
// successors cover the covered state's, label for label, and its goals are
// the same.
type simOracle struct {
	lower []int
	preds []func(*ta.State) bool
	// Successor contexts of its own: broken runs inside the explorer's.
	ctx, upCtx   *ta.SuccCtx
	succ, upSucc []ta.Transition
	up           ta.State
	why          string
}

func (o *simOracle) broken(s *ta.State) bool {
	o.succ = o.ctx.Successors(s, o.succ[:0])
	for _, c := range o.lower {
		for _, v := range []int32{s.Clocks[c] + 1, ta.MaxClockCap} {
			copyState(&o.up, s)
			o.up.Clocks[c] = v
			for i, pred := range o.preds {
				if pred(s) != pred(&o.up) {
					o.why = fmt.Sprintf("predicate %d tells it from clock %d raised to %d", i, c, v)
					return true
				}
			}
			o.upSucc = o.upCtx.Successors(&o.up, o.upSucc[:0])
			for k := range o.succ {
				a := &o.succ[k]
				if !slices.ContainsFunc(o.upSucc, func(b ta.Transition) bool {
					return b.Label == a.Label && b.Delay == a.Delay && o.covers(&b.Target, &a.Target)
				}) {
					o.why = fmt.Sprintf("with clock %d raised to %d, no transition covers %q to %v", c, v, a.Label, a.Target)
					return true
				}
			}
		}
	}
	return false
}

// covers reports whether big equals small but for values of the clocks
// lower at least small's.
func (o *simOracle) covers(big, small *ta.State) bool {
	if !slices.Equal(big.Locs, small.Locs) || !slices.Equal(big.Vars, small.Vars) {
		return false
	}
	for c := range big.Clocks {
		if big.Clocks[c] < small.Clocks[c] || big.Clocks[c] > small.Clocks[c] && !slices.Contains(o.lower, c) {
			return false
		}
	}
	return true
}

// checkSimulation runs the simulation oracle for the clocks lower over
// every reachable state of net, or under -short over a breadth-first
// prefix; see runOracle.
func checkSimulation(net *ta.Network, lower []int, preds []func(*ta.State) bool) (states int, failure string, err error) {
	o := &simOracle{lower: lower, preds: preds, ctx: net.NewSuccCtx(), upCtx: net.NewSuccCtx()}
	return runOracle(net, o.broken, &o.why, testing.Short(), mc.Options{})
}

// TestCoverageIsSimulation is the oracle for coverage on every model of
// the grid that has a lower-bound clock (the R1 monitor's; the sliced
// models have none) and on the shutdown models (the shutdown goal's clock):
// exhaustive, 0 violations, with the predicates the verdict paths
// evaluate.
func TestCoverageIsSimulation(t *testing.T) {
	t.Parallel()
	models, total := 0, 0
	check := func(name string, net *ta.Network, preds []func(*ta.State) bool) {
		lower := net.LowerClocks()
		if len(lower) == 0 {
			return
		}
		states, failure, err := checkSimulation(net, lower, preds)
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%s: %s", name, failure)
		}
		models, total = models+1, total+states
	}
	for _, tc := range quotientGrid() {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%+v", tc.cfg), m.Net, m.requirementPreds())
	}
	for _, cfg := range shutdownOracleConfigs() {
		sm, err := BuildWithShutdownMonitor(cfg, cfg.ShutdownBound())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shutdown %+v", cfg), sm.Net, []func(*ta.State) bool{sm.Violated})
	}
	if models < len(shutdownOracleConfigs())+1 {
		t.Fatalf("%d models have a lower-bound clock: the R1 monitor's or the shutdown goal's clock no longer qualifies", models)
	}
	t.Logf("%d models, %d states checked", models, total)
}

// TestCoverageOracleCatchesEquality: the oracle can fail. The mutant
// compares the R1 monitor's clock by == (delay == bound+1 in place of
// delay > bound), so the derived rule names no clock, and covers on it as a
// rule admitting == would: raising the clock past bound+1 disables the
// violation edge, which the oracle must find.
func TestCoverageOracleCatchesEquality(t *testing.T) {
	m, err := Build(Config{TMin: 1, TMax: 3, Variant: Binary, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	mo := m.mons[0]
	edges := m.Net.Automata()[mo.aut].Edges
	at := slices.IndexFunc(edges, func(e ta.Edge) bool { return e.To == mo.errLoc })
	edges[at].Guard.Clocks = []ta.Atom{ta.Clk(mo.delay, ta.Eq, m.Cfg.DetectionBound()+1)}
	if lower := m.Net.LowerClocks(); len(lower) != 0 {
		t.Fatalf("the derived rule names %v for a clock compared by ==", lower)
	}
	_, failure, err := checkSimulation(m.Net, []int{mo.delay}, m.requirementPreds())
	if err != nil {
		t.Fatal(err)
	}
	if failure == "" {
		t.Fatal("the oracle found nothing wrong")
	}
	t.Log(failure)
}
