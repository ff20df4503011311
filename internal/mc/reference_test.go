package mc_test

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/ta"
)

// reference is the oracle for the packed explorer: the textbook
// breadth-first search over a map[string]int of state keys, one heap
// state per id, labels as the successors carry them, no paging, no hashing of its own. It
// shares only the level contract with the explorer: a level on which the
// goal turns up or the state limit (0: none) is crossed is expanded to
// its end, nothing commits past the limit, and the first goal state
// committed, in discovery order, is the witness. A canonicaliser (nil:
// none) rewrites each successor before it is looked up, as Options.Canon
// does.
type reference struct {
	states   []ta.State
	parent   []int
	label    []alphabet.Label
	delay    []bool
	trans    []mc.Trans
	goalID   int
	limitHit bool
	nTrans   int
}

func referenceBFS(n *ta.Network, goal, prune func(*ta.State) bool, canon func(*ta.State), limit int) *reference {
	r := &reference{goalID: -1}
	ids := map[string]int{}
	add := func(s *ta.State, parent int, label alphabet.Label, delay bool) int {
		id := len(r.states)
		ids[string(s.AppendKey(nil))] = id
		r.states = append(r.states, s.Clone())
		r.parent = append(r.parent, parent)
		r.label = append(r.label, label)
		r.delay = append(r.delay, delay)
		if r.goalID < 0 && goal != nil && goal(s) {
			r.goalID = id
		}
		return id
	}
	init := n.Initial()
	add(&init, -1, alphabet.Label{}, false)
	ctx := n.NewSuccCtx()
	for lo, hi := 0, 1; lo < hi && r.goalID < 0 && !r.limitHit; lo, hi = hi, len(r.states) {
		for from := lo; from < hi; from++ {
			src := r.states[from].Clone()
			if prune != nil && prune(&src) {
				continue
			}
			for _, tr := range ctx.Successors(&src, nil) {
				r.nTrans++
				if canon != nil {
					canon(&tr.Target)
				}
				to, seen := ids[string(tr.Target.AppendKey(nil))]
				switch {
				case seen:
				case limit > 0 && len(r.states) >= limit:
					r.limitHit = true
					to = -1
				default:
					to = add(&tr.Target, from, tr.Label, tr.Delay)
				}
				r.trans = append(r.trans, mc.Trans{From: from, Label: tr.Label, To: to})
			}
		}
	}
	return r
}

// trace is the witness's path through the quotient. Under a canonicaliser
// that keeps successor order, as the one here does, its labels, delays and
// times are those the replay reproduces and its states the representatives
// the witness's states rewrite to. Without a canonicaliser it is the
// witness.
func (r *reference) trace() []mc.Step {
	var rev []int
	for at := r.goalID; at != -1; at = r.parent[at] {
		rev = append(rev, at)
	}
	var steps []mc.Step
	now := 0
	for i := len(rev) - 1; i >= 0; i-- {
		id := rev[i]
		if r.delay[id] {
			now++
		}
		steps = append(steps, mc.Step{Label: r.label[id], Delay: r.delay[id], Time: now, State: r.states[id]})
	}
	return steps
}

func buildModel(t *testing.T, cfg models.Config) *models.Model {
	t.Helper()
	m, err := models.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// inactiveWatchdogCanon is a canonicaliser for a one-participant model,
// put together from the network's names: p[1]'s watchdog clock reads 0 once
// p[1] is inactivated. It is one row of the models package's dead-clock
// table, so the search it steers is the kind the verdict path runs — though
// explorer and reference must agree under any rewrite.
func inactiveWatchdogCanon(t *testing.T, n *ta.Network) func(*ta.State) {
	t.Helper()
	aut, vInact, nvInact, wfb := -1, -1, -1, -1
	for i, a := range n.Automata() {
		if a.Name != "Pp[1]" {
			continue
		}
		aut = i
		for l, loc := range a.Locations {
			switch loc.Name {
			case "VInact":
				vInact = l
			case "NVInact":
				nvInact = l
			}
		}
	}
	for c := 0; c < n.NumClocks(); c++ {
		if n.ClockName(c) == "wfb_p[1]" {
			wfb = c
		}
	}
	if aut < 0 || vInact < 0 || nvInact < 0 || wfb < 0 {
		t.Fatalf("no p[1] in the network: automaton %d, VInact %d, NVInact %d, clock %d", aut, vInact, nvInact, wfb)
	}
	return func(s *ta.State) {
		if loc := int(s.Locs[aut]); loc == vInact || loc == nvInact {
			s.Clocks[wfb] = 0
		}
	}
}

// TestSerialMatchesReferenceLTS pins ids, labels and counts: BuildLTS
// numbers states in discovery order and emits transitions in (source id,
// successor index) order, so its output must equal the reference's
// element for element.
func TestSerialMatchesReferenceLTS(t *testing.T) {
	cfg := models.Config{Variant: models.Binary, N: 1, TMin: 9, TMax: 10}
	ref := referenceBFS(buildModel(t, cfg).Net, nil, nil, nil, 0)
	if len(ref.states) <= 16384 {
		t.Fatalf("reference has %d states; the model must outgrow one store page to test paging", len(ref.states))
	}
	lts, err := mc.BuildLTS(buildModel(t, cfg).Net, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lts.NumStates != len(ref.states) || len(lts.Transitions) != len(ref.trans) {
		t.Fatalf("%d states / %d transitions, reference %d / %d",
			lts.NumStates, len(lts.Transitions), len(ref.states), len(ref.trans))
	}
	for i, tr := range lts.Transitions {
		if tr != ref.trans[i] {
			t.Fatalf("transition %d = %+v, reference %+v", i, tr, ref.trans[i])
		}
	}
}

// TestSerialMatchesReferenceChecks pins counts, parents and witness: a
// satisfied property (full exploration, with and without pruning) and the
// counter-example of binary tmin=1 R1, step for step — each on the network
// and on the quotient a canonicaliser leaves of it.
func TestSerialMatchesReferenceChecks(t *testing.T) {
	for _, tc := range []struct {
		cfg       models.Config
		prop      models.Property
		prune     bool
		reachable bool
	}{
		{models.Config{Variant: models.Binary, N: 1, TMin: 9, TMax: 10}, models.R1, false, false},
		{models.Config{Variant: models.Binary, N: 1, TMin: 9, TMax: 10}, models.R2, true, false},
		{models.Config{Variant: models.Binary, N: 1, TMin: 1, TMax: 10}, models.R1, false, true},
	} {
		for _, quotient := range []bool{false, true} {
			name := fmt.Sprintf("tmin=%d-%v", tc.cfg.TMin, tc.prop)
			if quotient {
				name += "-quotient"
			}
			t.Run(name, func(t *testing.T) {
				m := buildModel(t, tc.cfg)
				goal, err := m.Violation(tc.prop)
				if err != nil {
					t.Fatal(err)
				}
				var prune func(*ta.State) bool
				if tc.prune {
					prune = m.MessageLost
				}
				var canon func(*ta.State)
				if quotient {
					canon = inactiveWatchdogCanon(t, m.Net)
				}
				ref := referenceBFS(m.Net, goal, prune, canon, 0)
				res, err := mc.CheckReachability(m.Net, goal, mc.Options{Prune: prune, Canon: canon})
				if err != nil {
					t.Fatal(err)
				}
				if res.Reachable != tc.reachable {
					t.Fatalf("reachable = %v, want %v", res.Reachable, tc.reachable)
				}
				matchReference(t, m.Net, canon, res, ref)
				if quotient && !tc.reachable {
					if whole := referenceBFS(m.Net, goal, prune, nil, 0); len(ref.states) >= len(whole.states) {
						t.Fatalf("the quotient has %d states, the network %d: the canonicaliser merges nothing", len(ref.states), len(whole.states))
					}
				}
			})
		}
	}
}

// matchReference compares a check's verdict, counts and witness with the
// reference's, step for step. The reference records class representatives;
// the witness is a run of the network (canon nil: no rewrite), so each of
// its states must be a successor of the one before and, rewritten, the
// reference's.
func matchReference(t *testing.T, n *ta.Network, canon func(*ta.State), res mc.Result, ref *reference) {
	t.Helper()
	if res.Reachable != (ref.goalID >= 0) {
		t.Fatalf("reachable = %v, reference goal id %d", res.Reachable, ref.goalID)
	}
	if res.StatesExplored != len(ref.states) || res.TransitionsExplored != ref.nTrans {
		t.Fatalf("%d states / %d transitions, reference %d / %d",
			res.StatesExplored, res.TransitionsExplored, len(ref.states), ref.nTrans)
	}
	if !res.Reachable {
		return
	}
	want := ref.trace()
	if len(res.Trace) != len(want) {
		t.Fatalf("trace has %d steps, reference %d", len(res.Trace), len(want))
	}
	for i, got := range res.Trace {
		w, rep := want[i], got.State.Clone()
		if canon != nil {
			canon(&rep)
		}
		if got.Label != w.Label || got.Delay != w.Delay || got.Time != w.Time || string(rep.AppendKey(nil)) != string(w.State.AppendKey(nil)) {
			t.Fatalf("step %d = %q delay=%v t=%d %v, reference %q delay=%v t=%d %v",
				i, got.Label, got.Delay, got.Time, got.State, w.Label, w.Delay, w.Time, w.State)
		}
		if i > 0 && !slices.ContainsFunc(n.Successors(&res.Trace[i-1].State, nil), func(tr ta.Transition) bool {
			return tr.Label == got.Label && tr.Delay == got.Delay && string(tr.Target.AppendKey(nil)) == string(got.State.AppendKey(nil))
		}) {
			t.Fatalf("step %d, %q to %v, is no transition of the network", i, got.Label, got.State)
		}
	}
}

// TestSerialStateLimitSemantics pins the state limit against the
// reference on the violated cell binary tmin=1 R1, whose witness is not
// the last state to commit on its level: a limit crossed long before the
// witness, by the witness itself, on its level just after it commits, and
// a limit the run never reaches. The level that crosses the limit is
// expanded to its end (transition counts match), nothing commits past the
// limit, and a witness counts only if it committed before the crossing.
func TestSerialStateLimitSemantics(t *testing.T) {
	m := buildModel(t, models.Config{Variant: models.Binary, N: 1, TMin: 1, TMax: 10})
	goal, err := m.Violation(models.R1)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name  string
		canon func(*ta.State)
	}{{"", nil}, {"quotient: ", inactiveWatchdogCanon(t, m.Net)}} {
		name, canon := side.name, side.canon
		free := referenceBFS(m.Net, goal, nil, canon, 0)
		witness, total := free.goalID, len(free.states)
		if witness < 100 || total-witness < 2 {
			t.Fatalf("%switness id %d of %d states: the cell no longer commits states after the witness on its level", name, witness, total)
		}
		for _, tc := range []struct {
			name      string
			limit     int
			reachable bool
		}{
			{"crossed long before the witness", witness / 2, false},
			{"crossed by the witness", witness, false},
			{"crossed just after the witness", witness + 1, true},
			{"never crossed", total, true},
		} {
			t.Run(name+tc.name, func(t *testing.T) {
				ref := referenceBFS(m.Net, goal, nil, canon, tc.limit)
				res, err := mc.CheckReachability(m.Net, goal, mc.Options{MaxStates: tc.limit, Canon: canon})
				if crossed := tc.limit < total; ref.limitHit != crossed {
					t.Fatalf("reference crossed the limit: %v, want %v", ref.limitHit, crossed)
				}
				if tc.reachable {
					if err != nil || !res.Reachable {
						t.Fatalf("reachable = %v, err = %v, want the witness", res.Reachable, err)
					}
				} else if !errors.Is(err, mc.ErrStateLimit) || res.Reachable || res.StatesExplored != tc.limit {
					t.Fatalf("reachable = %v, %d states, err = %v, want ErrStateLimit at %d states",
						res.Reachable, res.StatesExplored, err, tc.limit)
				}
				matchReference(t, m.Net, canon, res, ref)
			})
		}
	}
}

// TestSerialSharedGoalsMatchSoloReference pins the per-goal contract of a
// shared exploration: checked together by CheckGoals, R2 and R3 each get
// exactly what a search for it alone gets — verdict, counts, witness and
// error — on the sliced model of every table cell (variant × tmin at tmax
// 10, original and corrected), pruned at the first loss as the verdict
// path prunes, on the network and on a quotient of it. Each goal's solo
// run is the reference BFS. State limits go just before, between and just
// after the two witnesses (or around the one witness when a goal is
// unreachable), so that a limit can end one goal in ErrStateLimit after
// the other has its witness. Asked for by name (-run) it covers every
// cell; a plain `go test` takes binary and expanding at tmin 5 and 10,
// which still hold models with two witnesses, with one and with none.
func TestSerialSharedGoalsMatchSoloReference(t *testing.T) {
	variants := []models.Variant{models.Binary, models.Expanding}
	tmins := []int32{5, 10}
	if f := flag.Lookup("test.run"); f != nil && f.Value.String() != "" && !testing.Short() {
		variants = []models.Variant{models.Binary, models.RevisedBinary, models.TwoPhase, models.Expanding, models.Dynamic}
		tmins = models.DefaultTMins()
	}
	var both, one, none int
	for _, v := range variants {
		for _, tmin := range tmins {
			for _, fixed := range []bool{false, true} {
				cfg := models.Config{Variant: v, N: 1, TMin: tmin, TMax: 10, Fixed: fixed, NoMonitor: true}
				m := buildModel(t, cfg)
				goals := []func(*ta.State) bool{m.R2Violated, m.R3Violated}
				for _, canon := range []func(*ta.State){nil, inactiveWatchdogCanon(t, m.Net)} {
					free := []*reference{
						referenceBFS(m.Net, goals[0], m.MessageLost, canon, 0),
						referenceBFS(m.Net, goals[1], m.MessageLost, canon, 0),
					}
					limits := []int{0}
					var witnesses []int
					for _, r := range free {
						if r.goalID >= 0 {
							witnesses = append(witnesses, r.goalID)
						}
					}
					switch len(witnesses) {
					case 2:
						both++
						lo, hi := min(witnesses[0], witnesses[1]), max(witnesses[0], witnesses[1])
						limits = append(limits, lo, lo+1, hi, hi+1)
					case 1:
						one++
						limits = append(limits, witnesses[0], witnesses[0]+1)
					default:
						none++
						limits = append(limits, len(free[0].states)/2)
					}
					for _, limit := range limits {
						t.Run(fmt.Sprintf("%v/tmin=%d/fixed=%v/quotient=%v/limit=%d", v, tmin, fixed, canon != nil, limit), func(t *testing.T) {
							res, errs := mc.CheckGoals(m.Net, goals, mc.Options{MaxStates: limit, Prune: m.MessageLost, Canon: canon})
							for i, goal := range goals {
								ref := free[i]
								if limit > 0 {
									ref = referenceBFS(m.Net, goal, m.MessageLost, canon, limit)
								}
								if stopped := ref.goalID < 0 && ref.limitHit; stopped != errors.Is(errs[i], mc.ErrStateLimit) || !stopped && errs[i] != nil {
									t.Fatalf("R%d: err = %v, reference stopped at the limit: %v", i+2, errs[i], stopped)
								}
								matchReference(t, m.Net, canon, res[i], ref)
							}
						})
					}
				}
			}
		}
	}
	if both == 0 || one == 0 || none == 0 {
		t.Fatalf("%d models with both witnesses, %d with one, %d with none: every kind must occur", both, one, none)
	}
}
