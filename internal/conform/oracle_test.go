package conform

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/sim"
)

// This file keeps two references the StreamChecker is held to, sharing
// none of its machinery. The inclusion reference is the frontier as the
// checker first had it — a materialised all-states slice after every
// reseed, a fresh map for dedup on every step, nothing shared, pooled or
// memoised — under the same piecewise rules, over a specification of the
// unreduced network rather than the quotient BuildSpec explores. The
// R1–R3 reference (refVerdicts) evaluates the requirements over the whole
// trace from their definitions instead of event by event.

// refSpecs caches the reference's specifications by model configuration.
var refSpecs par.Memo[models.Config, *Spec]

// refSpec is the reference's specification of cfg: the LTS of the network
// as built, with no canonicaliser, fed through the spec builder.
func refSpec(t *testing.T, cfg models.Config) *Spec {
	t.Helper()
	sp, err := refSpecs.Get(cfg, func(cfg models.Config) (*Spec, error) {
		cfg.NoMonitor = true
		m, err := models.Build(cfg)
		if err != nil {
			return nil, err
		}
		lts, err := mc.BuildLTS(m.Net, mc.Options{})
		if err != nil {
			return nil, err
		}
		return feedSpec(cfg, m, lts)
	})
	if err != nil {
		t.Fatalf("reference spec of %+v: %v", cfg, err)
	}
	return sp
}

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

// Alphabet returns the sorted visible labels of the specification.
func (sp *Spec) Alphabet() []string {
	out := make([]string, len(sp.labels))
	for i, l := range sp.labels {
		out[i] = l.String()
	}
	sort.Strings(out)
	return out
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

// refLongGap is the remaining time past which the reference lets a
// repeating frontier skip the rest of a gap.
const refLongGap = 1 << 16

// sameStates reports whether two frontiers hold the same states.
func sameStates(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[int32]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// refCheck replays a trace by the piecewise rules (DESIGN.md, "Adaptive
// variant"; plain single-spec checking when the check has no envelope) on
// the reference frontier over the network's specifications, unbudgeted.
func refCheck(t *testing.T, c *CampaignCheck, events []Event, horizon core.Tick) outcome {
	t.Helper()
	specAt := func(level int) *Spec { return refSpec(t, c.levelConfig(level)) }
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
			prev := ck.cur
			if !ck.step(sp.tickID) {
				return false
			}
			now++
			note()
			// Past refLongGap, a frontier a tick leaves as it was lets the
			// rest of the gap pass at once. The engine skips at the first
			// such tick, so on every shorter gap its jump is held to
			// tick-by-tick stepping.
			if to-now >= refLongGap && sameStates(prev, ck.cur) {
				now = to
			}
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
		if e, err = newAdaptiveEngine(c); err != nil {
			t.Fatal(err)
		}
	} else {
		sp, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		e = newStreamEngine(sp)
	}
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

// wrapSoon keeps the generation counter of the engine's spec graph within
// 8 images of wrapping, so the clear-and-restart path runs every few
// misses. It only raises a counter that has wrapped (or not yet been
// raised): every mark is then far below the new value.
func wrapSoon(e *streamEngine) {
	if g := &e.sp.graph; g.gen < 1<<24 {
		g.gen = math.MaxInt32 - 8
	}
}

// requireOutcome holds an engine outcome to the reference's: equal in every
// field but MaxFrontierSeen, which on the quotient may be smaller than on
// the network and must not be larger.
func requireOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if got.MaxFrontierSeen > want.MaxFrontierSeen {
		t.Fatalf("%s saw a frontier of %d states, the reference at most %d", what, got.MaxFrontierSeen, want.MaxFrontierSeen)
	}
	got.MaxFrontierSeen = want.MaxFrontierSeen
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s differs from the reference checker:\n  got:  %+v\n  want: %+v", what, got, want)
	}
}

// streamOutcome is a finished stream's result in the reference's terms.
func streamOutcome(c *CampaignCheck, res *StreamResult) outcome {
	o := outcome{
		Confirmed: res.Confirmed, Degraded: res.Degraded, Retunes: res.Retunes,
		Saturations: res.Saturations, MaxFrontierSeen: res.MaxFrontierSeen,
	}
	if c.Envelope != nil {
		o.FinalLevel = res.FinalLevel
	}
	if d := res.Unconfirmed; d != nil {
		o.Diverged, o.Index, o.Time, o.Label, o.Expected = true, d.Seq, d.Time, d.Label, d.Expected
	}
	return o
}

// monitorConfig is the configuration the checker evaluates R1–R3 at: the
// model's, or the envelope ceiling's for a piecewise check.
func monitorConfig(c *CampaignCheck) models.Config {
	if env := c.Envelope; env != nil {
		return env.LevelConfig(c.Model, env.Levels()-1)
	}
	return c.Model
}

// requireAgainstReference holds a stream's result on one trace to both
// references: its inclusion outcome to refCheck's, its R1–R3 verdicts to
// refVerdicts'. It returns the reference outcome.
func requireAgainstReference(t *testing.T, c *CampaignCheck, events []Event, lost uint64, horizon core.Tick, res *StreamResult) outcome {
	t.Helper()
	want := refCheck(t, c, events, horizon)
	requireOutcome(t, "stream checker", streamOutcome(c, res), want)
	if tv := refVerdicts(monitorConfig(c), events, lost, horizon); !reflect.DeepEqual(res.Verdicts, tv) {
		t.Fatalf("R1–R3 verdicts differ from the reference:\n  got:  %+v\n  want: %+v", res.Verdicts, tv)
	}
	return want
}

// refVerdicts evaluates R1–R3 (internal/models/requirements.go defines
// them) over a whole trace, straight from their definitions: each
// requirement looks back over the trace prefix it needs, and nothing is
// carried from event to event. Each (property, participant) is reported
// once, the first time it holds. Violations are listed in the order the
// trace reveals them — at the event that makes one observable (for R1, the
// first whose time passes the deadline), then the R1 obligations still
// open at the end, by participant — which is the order a live checker
// finds them in.
func refVerdicts(cfg models.Config, events []Event, lost uint64, horizon core.Tick) TraceVerdicts {
	n := cfg.N
	bound := core.Tick(cfg.DetectionBound())
	fixedMembers := cfg.Variant != models.Expanding && cfg.Variant != models.Dynamic
	is := func(ev Event, k alphabet.Kind, p int) bool { return ev.Label.Kind == k && int(ev.Label.A) == p }
	stops := func(ev Event, p int) bool { return is(ev, alphabet.Inactivate, p) || is(ev, alphabet.Crash, p) }
	delivery := func(ev Event, p int) bool {
		return is(ev, alphabet.DeliverBeatP0, p) || is(ev, alphabet.DeliverLeaveP0, p)
	}
	// stoppedBy is the time p stopped within events[:k], if it did.
	stoppedBy := func(p, k int) (core.Tick, bool) {
		for _, ev := range events[:k] {
			if stops(ev, p) {
				return ev.Time, true
			}
		}
		return 0, false
	}
	nvInactivated := func(p, k int) bool {
		for _, ev := range events[:k] {
			if is(ev, alphabet.Inactivate, p) {
				return true
			}
		}
		return false
	}
	// excused: participant j is alive after events[:k], or p[0] does not
	// count it as a member: it never joined, or its leave was the last
	// delivery from it p[0] took while active.
	excused := func(j, k int) bool {
		if _, dead := stoppedBy(j, k); !dead {
			return true
		}
		joined := fixedMembers
		for _, ev := range events[:k] {
			if stops(ev, 0) {
				break
			}
			if delivery(ev, j) {
				joined = ev.Label.Kind == alphabet.DeliverBeatP0
			}
		}
		return !joined
	}
	allExcusedBut := func(skip, k int) bool {
		for j := 1; j <= n; j++ {
			if j != skip && !excused(j, k) {
				return false
			}
		}
		return true
	}

	type found struct {
		at int // the event that reveals it; len(events) for the end of the run
		v  ReqViolation
	}
	var all []found
	// R1: an obligation is armed at time 0 for a fixed member and at every
	// beat p[0] receives, until p[0]'s next delivery from the same
	// participant; a delivered leave ends it for good. It is violated when
	// the bound elapses inside it, before the horizon, with p[0] still
	// active, and the violation is revealed by the first event whose time
	// passes the deadline, or by the end of the run.
	for i := 1; i <= n; i++ {
		open, ended, start := fixedMembers, false, core.Tick(0)
		// judge reports whether the open obligation, judged at events[k]
		// (the end of the run when k is len(events)), is violated.
		judge := func(k int) bool {
			deadline := start + bound
			if stop, ok := stoppedBy(0, k); ok && stop <= deadline {
				return false
			}
			all = append(all, found{k, ReqViolation{Prop: models.R1, Proc: i, Time: deadline + 1}})
			return true
		}
		violated := false
		for k, ev := range events {
			if open && start < horizon-bound && ev.Time > start+bound {
				open, violated = false, judge(k)
			}
			if violated {
				break
			}
			if delivery(ev, i) {
				ended = ended || ev.Label.Kind == alphabet.DeliverLeaveP0
				open, start = !ended, ev.Time
			}
		}
		if open && !violated && start < horizon-bound {
			judge(len(events))
		}
	}
	// R2 and R3 are re-judged after every event, and only on loss-free
	// runs.
	r2, r3 := make([]bool, n+1), false
	for k := 1; k <= len(events) && lost == 0; k++ {
		ev := events[k-1]
		if _, down := stoppedBy(0, k); !down {
			for p := 1; p <= n; p++ {
				if !r2[p] && nvInactivated(p, k) && allExcusedBut(p, k) {
					r2[p] = true
					all = append(all, found{k - 1, ReqViolation{Prop: models.R2, Proc: p, Time: ev.Time}})
				}
			}
		}
		if !r3 && nvInactivated(0, k) && allExcusedBut(0, k) {
			r3 = true
			all = append(all, found{k - 1, ReqViolation{Prop: models.R3, Time: ev.Time}})
		}
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].at != all[b].at {
			return all[a].at < all[b].at
		}
		if all[a].v.Prop != all[b].v.Prop {
			return all[a].v.Prop < all[b].v.Prop
		}
		return all[a].v.Proc < all[b].v.Proc
	})
	tv := TraceVerdicts{LossFree: lost == 0}
	for _, f := range all {
		tv.Violations = append(tv.Violations, f.v)
	}
	return tv
}

// Schedules of the three topology campaigns of hbsim -exp topo, as
// scenario.RackLossScenario(2), WANDelayScenario(1) and
// ChurnStormScenario(1) render them (scenario imports this package, so
// the texts are repeated here).
var topoCampaigns = []struct {
	name      string
	variant   models.Variant
	n         int
	reseedsAt int // the envelope level whose reseeds the campaign must take; -1: none
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

// rootStepped reports whether some reseed has stepped out of sp's root.
func rootStepped(sp *Spec) bool {
	for i := range sp.graph.root.kids {
		if sp.graph.root.kids[i].Load() != nil {
			return true
		}
	}
	return false
}

// TestEngineMatchesReferenceOnTopoCampaigns replays recorded trials of
// the three topology campaigns — retunes into both envelope levels,
// saturations, churn's by-design reseeds — through the engine three ways
// and holds each to the reference: with the graph's budget forced to 0
// (every step past the initial node goes through unpublished nodes), with
// the generation counter wrapping every few images, and as shipped.
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
				sp.graph.budget = 0
			}
			for i, events := range traces {
				requireOutcome(t, "engine with a spent graph budget",
					engineOutcome(t, check, events, horizon, nil), want[i])
			}
			for level, sp := range specs {
				if initial := len(sp.graph.initial.set); sp.graph.used != initial {
					t.Fatalf("level %d: a graph with no budget published %d states beside the %d of its initial node", level, sp.graph.used-initial, initial)
				}
				sp.graph = frontierGraph{}
				sp.initGraph()
			}
			// The wrapping counter runs first on each trace, while the
			// graph still misses and computes images.
			for i, events := range traces {
				requireOutcome(t, "engine with a wrapping generation counter",
					engineOutcome(t, check, events, horizon, wrapSoon), want[i])
				requireOutcome(t, "engine", engineOutcome(t, check, events, horizon, nil), want[i])
			}
			if level := tc.reseedsAt; level >= 0 && !rootStepped(specs[level]) {
				t.Fatalf("no reseed at level %d stepped out of the root", level)
			}
		})
	}
}

// TestSpecQuotientKeepsWeakTraces pins the claim the specs rest on: the
// quotient BuildSpec explores has the network's weak traces. For every
// variant at (2,4), and static at n=2, original and corrected, the
// unobservable labels are hidden and the weak-trace reductions of the
// network's LTS and of the quotient's are written out: the bytes are equal.
func TestSpecQuotientKeepsWeakTraces(t *testing.T) {
	var cfgs []models.Config
	for _, v := range models.Variants {
		cfgs = append(cfgs, models.Config{TMin: 2, TMax: 4, Variant: v, N: 1})
	}
	cfgs = append(cfgs, models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 2})
	hidden := func(l alphabet.Label) bool { return !l.Kind.Observable() }
	weak := func(lts *mc.LTS, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		reduced, err := lts.Hide(hidden).WeakTraceReduce(mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := reduced.WriteAUT(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, cfg := range cfgs {
		for _, fixed := range []bool{false, true} {
			cfg.Fixed, cfg.NoMonitor = fixed, true
			m, err := models.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			network, quotient := weak(mc.BuildLTS(m.Net, mc.Options{})), weak(quotientLTS(m))
			if network != quotient {
				got, _, _ := strings.Cut(quotient, "\n")
				want, _, _ := strings.Cut(network, "\n")
				t.Errorf("%+v: the quotient's weak traces differ from the network's: %s, the network's %s", cfg, got, want)
			}
		}
	}
}
