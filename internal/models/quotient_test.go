package models

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/mc"
	"repro/internal/ta"
	"repro/internal/trace"
)

// The verdict path explores a quotient (deadclock.go). The unreduced
// successor relation — which CountStates, BuildLTS, VerifyGoal and every
// conformance spec stay on — is the oracle for it.

// bisimOracle is a goal predicate for the unreduced checker: broken(s)
// reports that s -> canon(s) fails, at s, to be a functional strong
// bisimulation no predicate sees through. It holds when canon is not
// idempotent on s, when a predicate tells s from canon(s), or when the
// successors of s and of canon(s), each rewritten by canon, are not the
// same labelled states in the same order. Set equality is what bisimilarity
// needs; equal order is what makes the breadth-first witness of the
// quotient the witness of the network, label for label. Explored with no
// canonicaliser the goal is evaluated on every reachable state of the
// network, so "unreachable" is the proof.
type bisimOracle struct {
	canon func(*ta.State)
	preds []func(*ta.State) bool
	// Successor contexts of its own: broken runs inside the explorer's.
	ctx, repCtx   *ta.SuccCtx
	succ, repSucc []ta.Transition
	rep, again    ta.State
	why           string // what failed at the state broken held on
}

func copyState(dst, src *ta.State) {
	dst.Locs = append(dst.Locs[:0], src.Locs...)
	dst.Clocks = append(dst.Clocks[:0], src.Clocks...)
	dst.Vars = append(dst.Vars[:0], src.Vars...)
}

func sameState(a, b *ta.State) bool {
	return slices.Equal(a.Locs, b.Locs) && slices.Equal(a.Clocks, b.Clocks) && slices.Equal(a.Vars, b.Vars)
}

func (o *bisimOracle) broken(s *ta.State) bool {
	copyState(&o.rep, s)
	o.canon(&o.rep)
	copyState(&o.again, &o.rep)
	o.canon(&o.again)
	if !sameState(&o.again, &o.rep) {
		o.why = fmt.Sprintf("canon is not idempotent: %v, then %v", o.rep, o.again)
		return true
	}
	for i, pred := range o.preds {
		if pred(s) != pred(&o.rep) {
			o.why = fmt.Sprintf("predicate %d tells the state from its representative %v", i, o.rep)
			return true
		}
	}
	if sameState(s, &o.rep) {
		return false // its own representative: one successor list, not two
	}
	o.succ = o.ctx.Successors(s, o.succ[:0])
	o.repSucc = o.repCtx.Successors(&o.rep, o.repSucc[:0])
	if len(o.succ) != len(o.repSucc) {
		o.why = fmt.Sprintf("%d successors, its representative %v has %d", len(o.succ), o.rep, len(o.repSucc))
		return true
	}
	for k := range o.succ {
		a, b := &o.succ[k], &o.repSucc[k]
		o.canon(&a.Target)
		o.canon(&b.Target)
		if a.Label != b.Label || a.Delay != b.Delay || !sameState(&a.Target, &b.Target) {
			o.why = fmt.Sprintf("successor %d is %q to %v, of its representative %v %q to %v",
				k, a.Label, a.Target, o.rep, b.Label, b.Target)
			return true
		}
	}
	return false
}

// checkBisimulation runs the oracle over every reachable state of the
// unreduced network, or under -short (the -race sweep) over a breadth-first
// prefix of it. It returns the number of states checked and, if the oracle
// held anywhere, what failed and the shortest run that gets there.
func checkBisimulation(net *ta.Network, canon func(*ta.State), preds []func(*ta.State) bool, opts mc.Options) (states int, failure string, err error) {
	o := &bisimOracle{canon: canon, preds: preds, ctx: net.NewSuccCtx(), repCtx: net.NewSuccCtx()}
	if testing.Short() {
		opts.MaxStates = 20_000
	}
	res, err := mc.CheckReachability(net, o.broken, opts)
	if testing.Short() && errors.Is(err, mc.ErrStateLimit) {
		err = nil
	}
	if res.Reachable {
		last := res.Trace[len(res.Trace)-1]
		failure = fmt.Sprintf("at %v: %s\n%s", last.State, o.why, trace.Summary(res.Trace))
	}
	return res.StatesExplored, failure, err
}

// quotientCase is one model the oracle covers.
type quotientCase struct {
	cfg Config
	// lossless walks only the runs without message loss — the part of the
	// network the R2/R3 verdicts can reach — where the whole is out of
	// reach for an unreduced walk.
	lossless bool
}

// quotientGrid is every model the oracle covers: all six variants, original
// and corrected, with and without the R1 monitor, on the three orderings of
// the constants that select different bounds and counter-example families
// (2·tmin <= tmax, 2·tmin > tmax, tmin = tmax); static also at N=2, where
// two participants' rows interleave and the monitor sits mid-vector; and
// two joiners where an unreduced walk can afford them at all (even at
// tmax = 3 most two-joiner networks pass 3M states).
func quotientGrid() []quotientCase {
	var grid []quotientCase
	for _, variant := range []Variant{Binary, RevisedBinary, TwoPhase, Static, Expanding, Dynamic} {
		ns := []int{1}
		if variant == Static {
			ns = []int{1, 2}
		}
		for _, n := range ns {
			for _, c := range [][2]int32{{1, 3}, {2, 3}, {2, 2}} {
				for _, fixed := range []bool{false, true} {
					for _, sliced := range []bool{false, true} {
						grid = append(grid, quotientCase{cfg: Config{TMin: c[0], TMax: c[1], Variant: variant, N: n, Fixed: fixed, NoMonitor: sliced}})
					}
				}
			}
		}
	}
	return append(grid,
		quotientCase{cfg: Config{TMin: 2, TMax: 2, Variant: Expanding, N: 2, Fixed: true, NoMonitor: true}},
		quotientCase{cfg: Config{TMin: 2, TMax: 3, Variant: Dynamic, N: 2, Fixed: true, NoMonitor: true}, lossless: true},
	)
}

// requirementPreds are the predicates the verdict path evaluates on
// quotient states: the three goals and the prune.
func (m *Model) requirementPreds() []func(*ta.State) bool {
	return []func(*ta.State) bool{m.R1Violated, m.R2Violated, m.R3Violated, m.MessageLost}
}

// TestQuotientIsBisimulation is the oracle for every shipped dead-clock
// row: exhaustive over the grid, 0 violations.
func TestQuotientIsBisimulation(t *testing.T) {
	t.Parallel()
	grid, total := quotientGrid(), 0
	for _, tc := range grid {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var opts mc.Options
		if tc.lossless {
			opts.Prune = m.MessageLost
		}
		states, failure, err := checkBisimulation(m.Net, m.canon, m.requirementPreds(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%+v lossless=%v: %s", tc.cfg, tc.lossless, failure)
		}
		total += states
	}
	t.Logf("%d models, %d unreduced states checked", len(grid), total)
}

// TestQuotientIsBisimulationShutdown: the same for the shutdown monitor's
// model as VerifyShutdown builds it.
func TestQuotientIsBisimulationShutdown(t *testing.T) {
	for _, cfg := range []Config{
		{TMin: 1, TMax: 3, Variant: Binary, N: 1},
		{TMin: 2, TMax: 2, Variant: TwoPhase, N: 1, Fixed: true},
		{TMin: 1, TMax: 2, Variant: Static, N: 2},
		{TMin: 2, TMax: 3, Variant: Expanding, N: 1},
		{TMin: 1, TMax: 3, Variant: Dynamic, N: 1, Fixed: true},
	} {
		cfg.NoMonitor = true
		sm, err := BuildWithShutdownMonitor(cfg, cfg.ShutdownBound())
		if err != nil {
			t.Fatal(err)
		}
		_, failure, err := checkBisimulation(sm.Net, sm.canon, []func(*ta.State) bool{sm.Violated}, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if failure != "" {
			t.Errorf("%+v: %s", cfg, failure)
		}
	}
}

// TestQuotientOracleCatchesWrongRow: the oracle can fail. Each mutant adds
// to one row one location in which the clock is in fact live.
func TestQuotientOracleCatchesWrongRow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		mutate func(m *Model) (clock, loc int)
	}{
		{"wfb dead in Alive", Config{TMin: 1, TMax: 3, Variant: Binary, N: 1},
			func(m *Model) (int, int) { return m.ps[0].wfb, m.ps[0].alive }},
		{"rt dead in Fwd", Config{TMin: 2, TMax: 3, Variant: Expanding, N: 1, NoMonitor: true},
			func(m *Model) (int, int) { return m.chs[0].rt, m.chs[0].fly }},
	} {
		m, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		clock, loc := tc.mutate(m)
		rows := 0
		for i := range m.dead {
			if m.dead[i].clock == clock {
				m.dead[i].locs |= locSet(loc)
				rows++
			}
		}
		if rows != 1 {
			t.Fatalf("%s: clock %d has %d rows, want 1", tc.name, clock, rows)
		}
		_, failure, err := checkBisimulation(m.Net, m.canon, m.requirementPreds(), mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if failure == "" {
			t.Errorf("%s: the oracle found nothing wrong", tc.name)
		} else {
			t.Logf("%s: %s", tc.name, failure)
		}
	}
}

// TestQuotientMatchesNetworkAtTableScale is the differential at the scale
// the tables run at: the cells of the four hbcheck tables, checked by Verify
// and by the bare checker on the monitor-built network with no
// canonicaliser. Verdicts are equal, counter-examples equal label for label
// and tick for tick, and the quotient is strictly smaller. The unreduced
// side dominates the cost, and 25 cells dominate it: the static n=2 cells
// the analysis reports satisfied, 31M network states between them against
// 8M for the other 155. They are left out; their verdicts are pinned by
// TestTable1Static, TestFixedProtocolsSatisfyEverything and cmd/hbcheck's
// table golden, which an unreduced build wrote, and static n=2 is in the
// oracle's grid.
func TestQuotientMatchesNetworkAtTableScale(t *testing.T) {
	if testing.Short() {
		t.Skip("exhausts the unreduced networks; skipped in -short")
	}
	table1 := TableSpec{Variants: []Variant{Binary, RevisedBinary, TwoPhase, Static}, TMins: DefaultTMins(), TMax: 10, N: 2}
	table2 := TableSpec{Variants: []Variant{Expanding, Dynamic}, TMins: DefaultTMins(), TMax: 10, N: 1}
	fixed1, fixed2 := table1, table2
	fixed1.Fixed, fixed2.Fixed = true, true
	for _, tc := range []struct {
		name    string
		spec    TableSpec
		leftOut int
	}{
		{"table 1", table1, 10}, {"table 2", table2, 0}, {"fixed 1", fixed1, 15}, {"fixed 2", fixed2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cells, leftOut, reduced, unreduced := 0, 0, 0, 0
			for _, variant := range tc.spec.Variants {
				for ti, tmin := range tc.spec.TMins {
					for pi, prop := range []Property{R1, R2, R3} {
						if variant == Static && (tc.spec.Fixed || expectedOriginal[Static][pi][ti] == 'T') {
							leftOut++
							continue
						}
						cfg := Config{TMin: tmin, TMax: tc.spec.TMax, Variant: variant, N: tc.spec.N, Fixed: tc.spec.Fixed}
						got, err := Verify(cfg, prop, mc.Options{})
						if err != nil {
							t.Fatal(err)
						}
						want := verifyUnreduced(t, cfg, prop)
						cells++
						reduced += got.Result.StatesExplored
						unreduced += want.StatesExplored
						name := fmt.Sprintf("%v n=%d tmin=%d %v", variant, got.Cfg.N, tmin, prop)
						if got.Satisfied == want.Reachable {
							t.Errorf("%s: satisfied=%v, the network says reachable=%v", name, got.Satisfied, want.Reachable)
						}
						if got.Result.StatesExplored >= want.StatesExplored {
							t.Errorf("%s: quotient has %d states, the network %d", name, got.Result.StatesExplored, want.StatesExplored)
						}
						if err := sameRun(got.Result.Trace, want.Trace); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
			t.Logf("%d cells compared, %d left out: %d quotient states for %d of the network", cells, leftOut, reduced, unreduced)
			if leftOut != tc.leftOut {
				t.Errorf("%d cells left out, want %d", leftOut, tc.leftOut)
			}
		})
	}
}

// verifyUnreduced checks prop on the network itself: monitor-built, no
// canonicaliser, pruned at the first loss for R2 and R3.
func verifyUnreduced(t *testing.T, cfg Config, prop Property) mc.Result {
	t.Helper()
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	goal, err := m.Violation(prop)
	if err != nil {
		t.Fatal(err)
	}
	var opts mc.Options
	if prop != R1 {
		opts.Prune = m.MessageLost
	}
	res, err := mc.CheckReachability(m.Net, goal, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun reports the first difference between two witnesses' label and
// time sequences.
func sameRun(got, want []mc.Step) error {
	if len(got) != len(want) {
		return fmt.Errorf("witness has %d steps, the network's %d", len(got), len(want))
	}
	for i, step := range got {
		if w := want[i]; step.Label != w.Label || step.Delay != w.Delay || step.Time != w.Time {
			return fmt.Errorf("step %d is %q at %d, the network's %q at %d", i, step.Label, step.Time, w.Label, w.Time)
		}
	}
	return nil
}

// TestVerifyKeepsCallerHooks: the verdict path folds its own Prune and
// Canon into the caller's instead of overwriting them — through RunTable,
// whose TableSpec.Opts reaches R2 and R3 cells that prune on their own.
func TestVerifyKeepsCallerHooks(t *testing.T) {
	spec := TableSpec{Variants: []Variant{Binary}, TMins: []int32{2}, TMax: 4, N: 1, Workers: 1}
	free, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A caller that prunes everything stops every search at the initial
	// configuration.
	spec.Opts.Prune = func(*ta.State) bool { return true }
	pruned, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pruned {
		if got := c.Verdict.Result.StatesExplored; got != 1 {
			t.Errorf("%v under a prune-everything caller: %d states, want 1", c.Prop, got)
		}
	}
	// A caller's canonicaliser sees every successor, after the model's own
	// has rewritten it, and the model's prune and rewrite still apply.
	spec.Opts.Prune = nil
	calls, live := 0, 0
	m, err := Build(Config{TMin: 2, TMax: 4, Variant: Binary, N: 1})
	if err != nil {
		t.Fatal(err)
	}
	inactive := locSet(m.p0.vInact, m.p0.nvInact)
	spec.Opts.Canon = func(s *ta.State) {
		calls++
		if inactive>>s.Locs[m.p0.aut]&1 == 1 && s.Clocks[m.p0.waiting] != 0 {
			live++
		}
	}
	watched, err := RunTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	transitions := 0
	for i, c := range watched {
		transitions += c.Verdict.Result.TransitionsExplored
		if c.Verdict.Result.StatesExplored != free[i].Verdict.Result.StatesExplored {
			t.Errorf("%v beside an observing caller: %d states, %d without it",
				c.Prop, c.Verdict.Result.StatesExplored, free[i].Verdict.Result.StatesExplored)
		}
	}
	if calls != transitions || live != 0 {
		t.Errorf("caller's canonicaliser saw %d of %d successors, %d of them not yet rewritten", calls, transitions, live)
	}
}

// TestShutdownQuotientMatchesNetwork: VerifyShutdown against the bare
// checker on the network with its R1 monitor kept — a satisfied bound and a
// violated one per protocol family, witness included.
func TestShutdownQuotientMatchesNetwork(t *testing.T) {
	for _, cfg := range []Config{
		{TMin: 1, TMax: 4, Variant: Binary, N: 1},
		{TMin: 2, TMax: 4, Variant: Dynamic, N: 1, Fixed: true},
	} {
		for _, bound := range []int32{cfg.ShutdownBound(), cfg.CoordinatorDetectionBoundInt() - 1} {
			got, err := VerifyShutdown(cfg, bound, mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sm, err := BuildWithShutdownMonitor(cfg, bound)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mc.CheckReachability(sm.Net, sm.Violated, mc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Satisfied == want.Reachable || got.Result.StatesExplored >= want.StatesExplored {
				t.Errorf("%v bound %d: satisfied=%v in %d states, the network says reachable=%v in %d",
					cfg.Variant, bound, got.Satisfied, got.Result.StatesExplored, want.Reachable, want.StatesExplored)
			}
			if err := sameRun(got.Result.Trace, want.Trace); err != nil {
				t.Errorf("%v bound %d: %v", cfg.Variant, bound, err)
			}
		}
	}
}
