package conform

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/ta"
)

// modelStep is one step of a walk of a model: the label of the transition
// taken, the time it was taken at and the state it reached.
type modelStep struct {
	label alphabet.Label
	time  core.Tick
	state ta.State
}

// walkModel walks m's network from its initial state and never loses a
// message: pick chooses among the loss-free successors of each state
// (their indices in ts), or returns -1 to stop. The walk also stops where
// no successor is loss-free, and where time would pass horizon.
func walkModel(m *models.Model, horizon core.Tick, pick func(ts []ta.Transition, free []int) int) []modelStep {
	s := m.Net.Initial()
	now := core.Tick(0)
	var (
		buf  []ta.Transition
		free []int
		out  []modelStep
	)
	for {
		buf, free = m.Net.Successors(&s, buf[:0]), free[:0]
		for i := range buf {
			if !m.MessageLost(&buf[i].Target) {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			return out
		}
		k := pick(buf, free)
		if k < 0 || buf[k].Delay && now == horizon {
			return out
		}
		if buf[k].Delay {
			now++
		}
		s = buf[k].Target.Clone()
		out = append(out, modelStep{label: buf[k].Label, time: now, state: s})
	}
}

// randomPick chooses among the successors at random, with a temper drawn
// per walk: how often a drawn crash, or a drawn tick while something else
// is enabled, is drawn again. It takes an R1 error as soon as the monitor
// can raise it, so the model's R1 verdict falls at the tick its deadline
// passes.
func randomPick(rng *rand.Rand) func([]ta.Transition, []int) int {
	crash := []int{1, 2, 4, 16, 64}[rng.Intn(5)]
	delay := []int{1, 2, 4}[rng.Intn(3)]
	return func(ts []ta.Transition, free []int) int {
		for _, i := range free {
			if ts[i].Label.Kind == alphabet.ErrorR1 {
				return i
			}
		}
		for {
			i := free[rng.Intn(len(free))]
			switch {
			case ts[i].Label.Kind == alphabet.Crash && rng.Intn(crash) != 0:
			case ts[i].Delay && len(free) > 1 && rng.Intn(delay) != 0:
			default:
				return i
			}
		}
	}
}

// walkEvents is the event trace a run along steps shows: the visible
// labels, as the runtime spells them, at their times.
func walkEvents(steps []modelStep) []Event {
	var events []Event
	for _, st := range steps {
		if k := st.label.Kind; k.Observable() && k != alphabet.Tick {
			l := st.label
			l.Kind = k.Wire()
			events = append(events, Event{Time: st.time, Label: l})
		}
	}
	return events
}

// diffWalk holds a stream monitor of cfg, fed the events of a walk of m,
// to the model along the walk: its observables must be the model's after
// every step — a step the runtime cannot see must leave the model's as
// they were — R2 and R3 must first be reported at the event after which
// the model's predicate first holds, and R1 for p[i] at the tick p[i]'s
// Figure 9 monitor entered Error, if the walk's last tick is past the
// deadline. It returns which properties held on the walk.
func diffWalk(t *testing.T, cfg models.Config, m *models.Model, steps []modelStep) (held [models.R3 + 1]bool) {
	t.Helper()
	end := steps[len(steps)-1].time
	mon := newMonitor(cfg, end)
	wantR1, gotR1 := map[int]core.Tick{}, map[int]core.Tick{}
	for k, st := range steps {
		var revealed []ReqViolation
		if l := st.label; l.Kind.Observable() && l.Kind != alphabet.Tick {
			l.Kind = l.Kind.Wire()
			revealed = mon.observe(Event{Time: st.time, Label: l})
		}
		if got, want := mon.obs, m.Observe(&st.state); got != want {
			t.Fatalf("%+v: after step %d (%q at t=%d) the monitor observes %+v, the model %+v", cfg, k, st.label, st.time, got, want)
		}
		if st.label.Kind == alphabet.ErrorR1 {
			wantR1[int(st.label.A)] = st.time
		}
		reported := [models.R3 + 1]bool{}
		for _, v := range revealed {
			reported[v.Prop] = true
		}
		for _, p := range []models.Property{models.R2, models.R3} {
			pred, _ := m.Violation(p)
			if first := !held[p] && pred(&st.state); first != reported[p] {
				t.Fatalf("%+v: after step %d (%q at t=%d) %v first holds in the model: %v, reported: %v", cfg, k, st.label, st.time, p, first, reported[p])
			}
			held[p] = held[p] || reported[p]
		}
	}
	mon.finishTime()
	for _, v := range mon.viol {
		if v.Prop == models.R1 {
			gotR1[v.Proc] = v.Time
		}
	}
	if !maps.Equal(gotR1, wantR1) {
		t.Fatalf("%+v: R1 reported %v, the model's monitors raised %v", cfg, gotR1, wantR1)
	}
	held[models.R1] = len(wantR1) > 0
	return held
}

// TestMonitorMatchesModelOnWalks is the interpreter differential: on
// loss-free random walks of every variant's model, original and fixed,
// with the explorer's timings and participant counts up to two, the
// stream monitor fed a walk's events reports R2 and R3 first at the event
// after which the model's predicate first holds, and R1 for p[i] at the
// tick p[i]'s Figure 9 monitor enters Error, wherever the walk reaches
// that tick. TestMonitorExcusesLandedLeave pins the corner these walks
// rarely reach.
func TestMonitorMatchesModelOnWalks(t *testing.T) {
	walks := 500
	if testing.Short() {
		walks = 100
	}
	rng := rand.New(rand.NewSource(1))
	built := map[models.Config]*models.Model{}
	var fired [models.R3 + 1]int
	for _, v := range models.Variants {
		for _, fixed := range []bool{false, true} {
			for w := 0; w < walks; w++ {
				tm := walkTimings[rng.Intn(len(walkTimings))]
				cfg := models.Config{TMin: tm[0], TMax: tm[1], Variant: v, N: 1, Fixed: fixed, MonitorAll: true}
				if v == models.Static || v == models.Expanding || v == models.Dynamic {
					cfg.N += rng.Intn(2)
				}
				m := built[cfg]
				if m == nil {
					var err error
					if m, err = models.Build(cfg); err != nil {
						t.Fatal(err)
					}
					built[cfg] = m
				}
				steps := walkModel(m, core.Tick(6*int(tm[1])+rng.Intn(8)), randomPick(rng))
				if len(steps) == 0 {
					continue
				}
				for p, h := range diffWalk(t, cfg, m, steps) {
					if h {
						fired[p]++
					}
				}
			}
		}
	}
	t.Logf("walks on which R1, R2, R3 held: %v", fired[1:])
	for p := models.R1; p <= models.R3; p++ {
		if fired[p] == 0 {
			t.Errorf("%v held on no walk", p)
		}
	}
}

// TestMonitorExcusesLandedLeave pins R2 on a run of the original dynamic
// protocol (tmin 2, tmax 2, two participants) in which p[2] sends its
// leave and crashes, p[1]'s watchdog fires while p[0] is active and no
// message was lost, and then p[2]'s leave reaches p[0]. At p[1]'s
// inactivation p[0] still counts the crashed p[2], so R2 does not hold;
// once the leave lands p[2] is excused and it does. The model's predicate
// turns true on that delivery, and the stream checker reports R2 for p[1]
// there, at t=6, not at the inactivation at t=4.
func TestMonitorExcusesLandedLeave(t *testing.T) {
	cfg := models.Config{TMin: 2, TMax: 2, Variant: models.Dynamic, N: 2}
	m, err := models.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := []alphabet.Label{
		alphabet.Start.Of(0), alphabet.SendJoin.Of(2), alphabet.DeliverJoinP0.Of(2), alphabet.SendJoin.Of(1),
		tick, tick,
		alphabet.Timeout.Of(0), alphabet.SendBeat.Of(0), alphabet.DeliverBeat.Of(2), alphabet.SendBeat.Of(2),
		alphabet.DeliverJoinP0.Of(1), alphabet.DeliverBeatP0.Of(2), alphabet.DecideLeave.Of(2), alphabet.SendJoin.Of(1),
		tick, alphabet.DeliverJoinP0.Of(1),
		tick, alphabet.Timeout.Of(0), alphabet.SendBeat.Of(0), alphabet.DeliverBeat.Of(2), alphabet.SendLeave.Of(2),
		alphabet.Crash.Of(2), alphabet.SendJoin.Of(1), alphabet.Inactivate.Of(1),
		tick, alphabet.DeliverBeat.Of(1), alphabet.NoReply.Of(1), alphabet.DeliverJoinP0.Of(1),
		tick, alphabet.DeliverLeaveP0.Of(2),
	}
	next := 0
	steps := walkModel(m, 6, func(ts []ta.Transition, free []int) int {
		if next == len(script) {
			return -1
		}
		for _, i := range free {
			if ts[i].Label == script[next] {
				next++
				return i
			}
		}
		t.Fatalf("step %d: the model cannot take %q", next, script[next])
		return -1
	})
	if next != len(script) {
		t.Fatalf("walk stopped after %d of %d steps", next, len(script))
	}
	for _, st := range steps {
		landed := st.label.Kind == alphabet.DeliverLeaveP0
		if m.R2Violated(&st.state) != landed {
			t.Fatalf("model: R2 holds %v after %q at t=%d", !landed, st.label, st.time)
		}
	}

	res := streamAll(t, StreamConfig{Check: &CampaignCheck{Model: cfg}, Horizon: 6}, walkEvents(steps), 0)
	if res.Unconfirmed != nil {
		t.Fatalf("the run diverged from its model: %v", res.Unconfirmed)
	}
	want := []ReqViolation{{Prop: models.R2, Proc: 1, Time: 6}}
	if !slices.Equal(res.Verdicts.Violations, want) {
		t.Fatalf("violations %+v, want %+v", res.Verdicts.Violations, want)
	}
}

// TestMonitorR1EndsAtLeave pins R1 on a run of the original dynamic
// protocol (tmin 1, tmax 2, one participant) in which p[1]'s leave reaches
// p[0] and then a solicitation it sent before joining does: p[0] counts
// p[1] again, p[1] crashes, and p[0] inactivates five ticks later, past
// the claimed bound of four. The leave ended R1's obligation toward p[1]
// for good — Figure 9's Off is absorbing, and the late solicitation does
// not re-arm it — so neither the model nor the stream checker reports R1.
func TestMonitorR1EndsAtLeave(t *testing.T) {
	cfg := models.Config{TMin: 1, TMax: 2, Variant: models.Dynamic, N: 1}
	m, err := models.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := []alphabet.Label{
		alphabet.Start.Of(0), alphabet.SendJoin.Of(1),
		tick, alphabet.SuppressJoin.Of(1), alphabet.DeliverJoinP0.Of(1),
		tick, alphabet.Timeout.Of(0), alphabet.SendBeat.Of(0), alphabet.SendJoin.Of(1), alphabet.DeliverBeat.Of(1),
		alphabet.SendBeat.Of(1), alphabet.DecideLeave.Of(1), alphabet.DeliverBeatP0.Of(1),
		tick, tick, alphabet.Timeout.Of(0), alphabet.SendBeat.Of(0), alphabet.DeliverBeat.Of(1), alphabet.SendLeave.Of(1),
		alphabet.DeliverLeaveP0.Of(1), alphabet.DeliverJoinP0.Of(1), alphabet.Crash.Of(1),
	}
	next := 0
	// After the script, time passes whenever it can and nothing else
	// crashes or leaves.
	steps := walkModel(m, 12, func(ts []ta.Transition, free []int) int {
		if next == len(script) {
			pick := -1
			for _, i := range free {
				switch k := ts[i].Label.Kind; {
				case ts[i].Delay:
					return i
				case pick < 0 && k != alphabet.Crash && k != alphabet.DecideLeave:
					pick = i
				}
			}
			return pick
		}
		for _, i := range free {
			if ts[i].Label == script[next] {
				next++
				return i
			}
		}
		t.Fatalf("step %d: the model cannot take %q", next, script[next])
		return -1
	})
	stopped := false
	for _, st := range steps {
		if m.R1Violated(&st.state) {
			t.Fatalf("model: R1 violated after %q at t=%d", st.label, st.time)
		}
		stopped = stopped || st.label == alphabet.Inactivate.Of(0) && st.time > 4+core.Tick(cfg.DetectionBound())
	}
	if !stopped {
		t.Fatal("p[0] did not stay active past the bound after the late solicitation")
	}
	res := streamAll(t, StreamConfig{Check: &CampaignCheck{Model: cfg}, Horizon: 12}, walkEvents(steps), 0)
	if res.Unconfirmed != nil {
		t.Fatalf("the run diverged from its model: %v", res.Unconfirmed)
	}
	if len(res.Verdicts.Violations) != 0 {
		t.Fatalf("violations %+v, want none", res.Verdicts.Violations)
	}
}
