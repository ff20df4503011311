package conform

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/sim"
)

// Offline ≡ online holds by construction (one engine), so it cannot catch
// a bug in the engine's frontier machinery. This file keeps an independent
// reference: the frontier as the checker first had it — a materialised
// all-states slice after every reseed, a fresh map for dedup on every
// step, nothing shared, pooled or memoised — under the same piecewise
// rules, and holds the engine to it.

// outcome is what the reference and the engine are compared on.
type outcome struct {
	Diverged                                              bool
	Index                                                 int
	Time                                                  core.Tick
	Label                                                 string
	Expected                                              []string
	Confirmed, Degraded, Retunes, Saturations, FinalLevel int
	MaxFrontierSeen                                       int
}

// refChecker is the reference frontier.
type refChecker struct {
	sp  *Spec
	cur []int32
}

// refIDs is the reference's own way from an event to a label id: a map
// keyed by the rendered text, checked against Spec.Alphabet — so it shares
// nothing with the dense label index it is holding Spec.id to.
func refIDs(t *testing.T, sp *Spec) map[string]int32 {
	t.Helper()
	ids := make(map[string]int32, len(sp.labels))
	for id, l := range sp.labels {
		ids[l.String()] = int32(id)
	}
	alpha := sp.Alphabet()
	if len(alpha) != len(ids) {
		t.Fatalf("spec has %d label ids for an alphabet of %d: %v", len(ids), len(alpha), alpha)
	}
	for _, name := range alpha {
		if _, ok := ids[name]; !ok {
			t.Fatalf("alphabet label %q has no id", name)
		}
	}
	return ids
}

func refClosure(sp *Spec, set []int32, seen map[int32]bool) []int32 {
	for i := 0; i < len(set); i++ {
		s := set[i]
		for _, t := range sp.tauTo[sp.tauOff[s]:sp.tauOff[s+1]] {
			if !seen[t] {
				seen[t] = true
				set = append(set, t)
			}
		}
	}
	return set
}

func newRefChecker(sp *Spec) *refChecker {
	return &refChecker{sp: sp, cur: refClosure(sp, []int32{0}, map[int32]bool{0: true})}
}

func newRefCheckerAll(sp *Spec) *refChecker {
	c := &refChecker{sp: sp, cur: make([]int32, sp.NumStates)}
	for s := range c.cur {
		c.cur[s] = int32(s)
	}
	return c
}

func (c *refChecker) step(label int32) bool {
	seen := map[int32]bool{}
	var out []int32
	for _, s := range c.cur {
		for _, e := range c.sp.vis[c.sp.visOff[s]:c.sp.visOff[s+1]] {
			if e.label == label && !seen[e.to] {
				seen[e.to] = true
				out = append(out, e.to)
			}
		}
	}
	if len(out) == 0 {
		return false
	}
	c.cur = refClosure(c.sp, out, seen)
	return true
}

func (c *refChecker) enabled() []string {
	seen := map[string]bool{}
	for _, s := range c.cur {
		for _, e := range c.sp.vis[c.sp.visOff[s]:c.sp.visOff[s+1]] {
			seen[c.sp.labels[e.label].String()] = true
		}
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// refCheck replays a trace by the piecewise rules (DESIGN.md, "Adaptive
// variant"; plain single-spec checking when the check has no envelope) on
// the reference frontier, unbudgeted.
func refCheck(t *testing.T, c *CampaignCheck, events []Event, horizon core.Tick) outcome {
	t.Helper()
	specAt := func(level int) *Spec {
		sp, err := c.specAt(level)
		if err != nil {
			t.Fatalf("spec level %d: %v", level, err)
		}
		return sp
	}
	piecewise := c.Envelope != nil
	level := baseLevel
	if piecewise {
		level = 0
	}
	var (
		o        outcome
		sp       = specAt(level)
		ids      = refIDs(t, sp)
		ck       = newRefChecker(sp)
		now      core.Tick
		degraded bool
	)
	note := func() { o.MaxFrontierSeen = max(o.MaxFrontierSeen, len(ck.cur)) }
	note()
	diverge := func(i int, label alphabet.Label) outcome {
		o.Diverged, o.Index, o.Time, o.Label, o.Expected = true, i, now, label.String(), ck.enabled()
		return o
	}
	advance := func(to core.Tick) bool {
		if degraded {
			now = to
			return true
		}
		for now < to {
			if !ck.step(sp.tickID) {
				return false
			}
			now++
			note()
		}
		return true
	}
	for i, ev := range events {
		if !advance(ev.Time) {
			return diverge(i, tick)
		}
		id, known := ids[ev.Label.String()]
		if !piecewise {
			if !known || !ck.step(id) {
				return diverge(i, ev.Label)
			}
			note()
			continue
		}
		if known {
			if degraded {
				continue
			}
			if ck.step(id) {
				note()
				continue
			}
		}
		if ev.Label.Kind == alphabet.Retune {
			next, ok := envelopeLevelOf(*c.Envelope, ev.Label.A, ev.Label.B)
			if !ok {
				return diverge(i, ev.Label)
			}
			o.Retunes++
			if next == level {
				degraded = true
				o.Saturations++
				continue
			}
			degraded = false
			level, o.FinalLevel = next, next
			sp = specAt(level)
			ids = refIDs(t, sp)
			ck = newRefCheckerAll(sp)
			continue
		}
		switch {
		case ev.Label.Kind.ByDesign():
			o.Confirmed++
			ck = newRefCheckerAll(sp)
		case degraded:
			o.Degraded++
		default:
			return diverge(i, ev.Label)
		}
	}
	if !advance(horizon) {
		return diverge(len(events), tick)
	}
	return o
}

// engineOutcome replays a trace through a fresh engine of the check.
// prepare, if non-nil, runs on the engine before each event and before
// the final passage of time.
func engineOutcome(t *testing.T, c *CampaignCheck, events []Event, horizon core.Tick, prepare func(*streamEngine)) outcome {
	t.Helper()
	var e *streamEngine
	if c.Envelope != nil {
		var err error
		if e, err = newAdaptiveEngine(c, 0); err != nil {
			t.Fatal(err)
		}
	} else {
		sp, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		e = newStreamEngine(sp, c.getScratch(), 0)
	}
	defer e.release(c)
	var d *divergePoint
	for i, ev := range events {
		if prepare != nil {
			prepare(e)
		}
		var err error
		if d, err = e.feed(i, ev); err != nil {
			t.Fatal(err)
		}
		if d != nil {
			break
		}
	}
	if d == nil {
		if prepare != nil {
			prepare(e)
		}
		d = e.finish(horizon, len(events))
	}
	o := outcome{
		Confirmed: e.confirmed, Degraded: e.degradedEvs, Retunes: e.retunes,
		Saturations: e.saturations, FinalLevel: e.finalLevel,
		MaxFrontierSeen: e.maxFrontierSeen,
	}
	if d != nil {
		o.Diverged, o.Index, o.Time, o.Label, o.Expected = true, d.index, d.time, d.label.String(), d.expected
	}
	return o
}

// wrapSoon keeps the scratch's generation counter within 8 steps of
// wrapping, so the clear-and-restart path runs every few steps. It only
// raises a counter that has wrapped (or not yet been raised): every stamp
// in mark is then far below the new value.
func wrapSoon(e *streamEngine) {
	if e.ck.gen < 1<<24 {
		e.ck.gen = math.MaxInt32 - 8
	}
}

func requireOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs from the reference checker:\n  got:  %+v\n  want: %+v", what, got, want)
	}
}

// requireAgainstReference holds the engine to the reference on one trace.
func requireAgainstReference(t *testing.T, c *CampaignCheck, events []Event, horizon core.Tick) outcome {
	t.Helper()
	want := refCheck(t, c, events, horizon)
	requireOutcome(t, "engine", engineOutcome(t, c, events, horizon, nil), want)
	return want
}

// Schedules of the three topology campaigns of hbsim -exp topo, as
// scenario.RackLossScenario(2), WANDelayScenario(1) and
// ChurnStormScenario(1) render them (scenario imports this package, so
// the texts are repeated here).
var topoCampaigns = []struct {
	name      string
	variant   models.Variant
	n         int
	reseedsAt int // the envelope level whose region the campaign must grow; -1: none
	schedule  string
}{
	{"rack_loss", models.Static, 2, 1, "topo racks=0:0,1:0,2:1 zones=1:1\n" +
		"rackloss t=200 rack=1 pgb=0.25 pbg=0.25 lg=0.6 lb=0.95\nrackloss t=800 rack=1\n"},
	{"wan_delay", models.Expanding, 1, -1, "topo racks=0:0,1:1 zones=1:1\n" +
		"zonedelay t=150 from=0 to=1 mindelay=1 maxdelay=1\nzonedelay t=700 from=0 to=1 mindelay=0 maxdelay=0\n"},
	{"churn_storm", models.Dynamic, 1, 0, "topo racks=0:0,1:1 zones=1:1\n" +
		"churn t=250 stagger=20 down=80 nodes=1\n"},
}

var topoEnvelope = models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}

func topoCheck(variant models.Variant, n int) *CampaignCheck {
	tmin, tmax := topoEnvelope.Point(0)
	return &CampaignCheck{
		Model:    models.Config{TMin: tmin, TMax: tmax, Variant: variant, N: n, Fixed: true},
		Envelope: &topoEnvelope,
	}
}

// recordAdaptive records one adaptive cluster run under a fault schedule,
// assembled the way scenario.RunCampaign assembles a trial.
func recordAdaptive(t *testing.T, check *CampaignCheck, sched *faults.Schedule, seed int64, horizon core.Tick) ([]Event, uint64) {
	t.Helper()
	cc, err := ClusterFor(check.Model)
	if err != nil {
		t.Fatal(err)
	}
	env := check.Envelope
	cc.Adaptive = &core.AdaptiveOptions{
		Envelope: core.Envelope{
			TMinLo: core.Tick(env.TMinLo), TMinHi: core.Tick(env.TMinHi),
			TMaxLo: core.Tick(env.TMaxLo), TMaxHi: core.Tick(env.TMaxHi),
		},
		Window: 2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
	}
	cc.AllowRejoin = check.Model.Variant == models.Dynamic
	cc.Seed = seed
	s := *sched
	cc.Faults = &s
	rec := NewRecorder()
	cc.Observe = rec
	c, err := detector.NewCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Sim.RunUntil(sim.Time(horizon))
	c.Stop()
	if errs := c.FaultErrors(); len(errs) > 0 {
		t.Fatalf("fault schedule failed: %v", errs[0])
	}
	fs := c.Faults.Stats()
	return rec.Events(), c.Net.Stats().Total.Lost + fs.DroppedMuted + fs.DroppedPartition + fs.DroppedLoss
}

// TestEngineMatchesReferenceOnTopoCampaigns replays recorded trials of
// the three topology campaigns — retunes into both envelope levels,
// saturations, churn's by-design reseeds — through the engine three ways
// and holds each to the reference: with the region's budget forced to 0
// (every reseed steps privately), as shipped (shared region), and with the
// generation counter wrapping every few steps.
func TestEngineMatchesReferenceOnTopoCampaigns(t *testing.T) {
	const horizon = core.Tick(1200)
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for _, tc := range topoCampaigns {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sched, err := faults.ParseSchedule(tc.schedule)
			if err != nil {
				t.Fatal(err)
			}
			check := topoCheck(tc.variant, tc.n)
			var specs []*Spec
			for level := 0; level < topoEnvelope.Levels(); level++ {
				sp, err := check.SpecAt(level)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, sp)
			}
			traces := make([][]Event, seeds)
			want := make([]outcome, seeds)
			var sum outcome
			for i := range traces {
				traces[i], _ = recordAdaptive(t, check, sched, int64(i+1), horizon)
				want[i] = refCheck(t, check, traces[i], horizon)
				if want[i].Diverged {
					t.Fatalf("seed %d: healthy campaign trial diverged: %+v", i+1, want[i])
				}
				sum.Retunes += want[i].Retunes
				sum.Saturations += want[i].Saturations
				sum.Confirmed += want[i].Confirmed
			}
			// Each campaign must exercise what it is here for.
			switch tc.name {
			case "rack_loss":
				if sum.Retunes <= sum.Saturations || sum.Saturations == 0 {
					t.Fatalf("rack loss made %d retunes, %d of them saturated: want level changes and saturations", sum.Retunes, sum.Saturations)
				}
			case "churn_storm":
				if sum.Confirmed == 0 {
					t.Fatal("churn storm produced no by-design reseed")
				}
			}

			for _, sp := range specs {
				sp.region.budget = 0
			}
			for i, events := range traces {
				requireOutcome(t, "engine with a spent region budget",
					engineOutcome(t, check, events, horizon, nil), want[i])
			}
			for level, sp := range specs {
				if sp.region.used != 0 {
					t.Fatalf("level %d: a region with no budget memoised %d states", level, sp.region.used)
				}
				sp.region = reseedRegion{}
				sp.region.init(len(sp.labels), sp.NumStates)
			}
			for i, events := range traces {
				requireOutcome(t, "engine", engineOutcome(t, check, events, horizon, nil), want[i])
				requireOutcome(t, "engine with a wrapping generation counter",
					engineOutcome(t, check, events, horizon, wrapSoon), want[i])
			}
			if level := tc.reseedsAt; level >= 0 && specs[level].region.used == 0 {
				t.Fatalf("the reseeds at level %d memoised nothing", level)
			}
		})
	}
}
