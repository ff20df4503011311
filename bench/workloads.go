package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/ensemble"
	"repro/internal/fleet"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// digest is one protocol-level outcome a golden can pin: Key names the
// workload, input and seed, Value is a "field=value …" line.
type digest struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// passOut is what one pass of a workload reports.
type passOut struct {
	// ops is the work done, in the workload's unit.
	ops uint64
	// attempted and failed count the correctness checks of the pass; a
	// layer returning an error fails the checks it would have produced.
	attempted, failed int
	// fails holds the first few failure messages.
	fails []string
	// counts are exact per-pass counts read at layer boundaries.
	counts map[string]float64
	// digests are the outcomes the golden file may pin.
	digests []digest
}

// check counts one correctness check.
func (p *passOut) check(ok bool, format string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if len(p.fails) < 8 {
		p.fails = append(p.fails, fmt.Sprintf(format, args...))
	}
}

// count adds to an exact per-pass counter.
func (p *passOut) count(name string, v float64) {
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	p.counts[name] += v
}

// instance is a workload after set-up: everything its passes reuse.
type instance interface {
	// pass runs pass i on inputs derived from seed alone.
	pass(i int, seed int64, tr *tracer) passOut
}

// workload is one named input set. Every workload is a closed loop with
// one caller: the next pass starts when the previous one returns.
type workload struct {
	name string
	// unit is what ops counts.
	unit string
	// why records the reason the workload exists (BENCHMARK.json carries
	// the same line).
	why string
	// setup builds everything passes reuse. tiny selects the unit-test
	// scale.
	setup func(seed int64, tiny bool, tr *tracer) (instance, error)
}

var workloads = []workload{
	{
		name: "check_tables", unit: "cells",
		why:   "hbcheck -table path: 75 small and mid state spaces, so model build, per-check store set-up and counter-example rebuild carry weight; only ta, mc and models run",
		setup: setupTables,
	},
	{
		name: "check_large", unit: "cells",
		why:   "static n=2 tmin=9 R2, 1.47M states: the store outgrows every CPU cache, so store layout shows here and per-check overhead does not",
		setup: setupLarge,
	},
	{
		name: "sim_cluster", unit: "msgs",
		why:   "four long event-driven clusters with nothing on top: sim heap, netem, core machines, detector dispatch and the beat codec dominate; mc, conform, fleet and ensemble do nothing",
		setup: setupClusters,
	},
	{
		name: "sim_campaign", unit: "trials",
		why:   "hbsim -exp topo: short trials under faults, adaptive retuning and streaming conformance; conform, faults and scenario dominate, and set-up is where BuildLTS cost shows",
		setup: setupCampaign,
	},
	{
		name: "mc_sweep", unit: "trials",
		why:   "hbmc Q2+Q3 sweeps: only ensemble and stats run, covering both the register-resident binary path and the generic row scan",
		setup: setupSweep,
	},
	{
		name: "fleet_epochs", unit: "beats",
		why:   "hbfleet 1,048,576 endpoints at 1% loss: fleet kRound, the timer wheel with 16k timers per shard, batched codec and rollup; no other layer runs",
		setup: setupFleet,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaleKey prefixes golden keys of the unit-test scale, so they can
// never match a full-scale golden.
func scaleKey(tiny bool, format string, args ...any) string {
	key := fmt.Sprintf(format, args...)
	if tiny {
		return "tiny/" + key
	}
	return key
}

// ---- check_tables -------------------------------------------------------

// wantRows are the analysis' R1R2R3 verdicts per variant over
// models.DefaultTMins() (tmax 10, n 1); see EXPERIMENTS.md.
var wantRows = map[models.Variant][5]string{
	models.Binary:        {"FTT", "FTT", "FTT", "TTT", "TFF"},
	models.RevisedBinary: {"FTT", "FTT", "FTT", "TTT", "TFF"},
	models.TwoPhase:      {"FTT", "FTT", "FTT", "FTT", "TFF"},
	models.Expanding:     {"FTT", "FTT", "FFT", "TFT", "TFF"},
	models.Dynamic:       {"FTT", "FTT", "FFT", "TFT", "TFF"},
}

type tables struct {
	specs []models.TableSpec
	names []string
}

func setupTables(_ int64, tiny bool, _ *tracer) (instance, error) {
	tmins := models.DefaultTMins()
	table2 := []models.Variant{models.Expanding, models.Dynamic}
	if tiny {
		tmins, table2 = tmins[:1], table2[:1]
	}
	spec := func(vs ...models.Variant) models.TableSpec {
		return models.TableSpec{
			Variants: vs, TMins: tmins, TMax: 10, N: 1,
			Opts: mc.Options{Workers: 1}, Workers: 1,
		}
	}
	return &tables{
		specs: []models.TableSpec{
			spec(models.Binary, models.RevisedBinary, models.TwoPhase),
			spec(table2...),
		},
		names: []string{"binary_family", "table2"},
	}, nil
}

func (t *tables) pass(_ int, _ int64, tr *tracer) passOut {
	var out passOut
	col := map[int32]int{}
	for i, tmin := range models.DefaultTMins() {
		col[tmin] = i
	}
	for k, spec := range t.specs {
		id := tr.begin("models", "models.RunTable "+t.names[k])
		cells, err := models.RunTable(spec)
		tr.end(id)
		for _, c := range cells {
			want := wantRows[c.Variant][col[c.TMin]][c.Prop-models.R1] == 'T'
			out.check(c.Verdict.Satisfied == want, "%v tmin=%d %v: satisfied=%v, want %v",
				c.Variant, c.TMin, c.Prop, c.Verdict.Satisfied, want)
			out.count("mc.states", float64(c.Verdict.Result.StatesExplored))
			out.count("mc.transitions", float64(c.Verdict.Result.TransitionsExplored))
		}
		for missing := len(spec.Variants)*len(spec.TMins)*3 - len(cells); missing > 0; missing-- {
			out.check(false, "%s: %v", t.names[k], err)
		}
		out.ops += uint64(len(cells))
	}
	out.count("models.cells", float64(out.ops))
	return out
}

// ---- check_large --------------------------------------------------------

type large struct{ cfg models.Config }

func setupLarge(_ int64, tiny bool, _ *tracer) (instance, error) {
	cfg := models.Config{Variant: models.Static, N: 2, TMin: 9, TMax: 10}
	if tiny {
		cfg.N = 1
	}
	return &large{cfg: cfg}, cfg.Validate()
}

func (l *large) pass(_ int, _ int64, tr *tracer) passOut {
	var out passOut
	id := tr.begin("models", "models.Verify static R2")
	v, err := models.Verify(l.cfg, models.R2, mc.Options{Workers: 1})
	tr.end(id)
	out.check(err == nil && v.Satisfied, "static n=%d tmin=9 R2: satisfied=%v err=%v", l.cfg.N, v.Satisfied, err)
	out.ops = 1
	out.count("models.cells", 1)
	out.count("mc.states", float64(v.Result.StatesExplored))
	out.count("mc.transitions", float64(v.Result.TransitionsExplored))
	return out
}

// ---- sim_cluster --------------------------------------------------------

// clusterShape is one of the four long-running clusters of sim_cluster.
type clusterShape struct {
	name  string
	proto detector.Protocol
	n     int
}

type clusters struct {
	shapes  []clusterShape
	horizon sim.Time
	tiny    bool
}

// clusterCrashLead is how long before the horizon the highest
// participant crashes: long enough for the detection bound to elapse.
const clusterCrashLead = 160

func clusterConfig(sh clusterShape, seed int64) detector.ClusterConfig {
	return detector.ClusterConfig{
		Protocol: sh.proto,
		Core:     core.Config{TMin: 2, TMax: 16},
		N:        sh.n,
		Link:     netem.LinkConfig{LossProb: 0.005, MaxDelay: 1},
		Seed:     seed,
	}
}

func setupClusters(_ int64, tiny bool, _ *tracer) (instance, error) {
	c := &clusters{horizon: 1_000_000, tiny: tiny}
	n := 8
	if tiny {
		c.horizon, n = 20_000, 3
	}
	c.shapes = []clusterShape{
		{"binary", detector.ProtocolBinary, 1},
		{"static", detector.ProtocolStatic, n},
		{"expanding", detector.ProtocolExpanding, n},
		{"dynamic", detector.ProtocolDynamic, n},
	}
	return c, nil
}

// countingMachine counts protocol machine steps at the WrapMachine seam.
type countingMachine struct {
	core.Machine
	steps *uint64
}

func (m countingMachine) Start(now core.Tick) []core.Action {
	*m.steps++
	return m.Machine.Start(now)
}

func (m countingMachine) OnTimer(id core.TimerID, now core.Tick) []core.Action {
	*m.steps++
	return m.Machine.OnTimer(id, now)
}

func (m countingMachine) OnBeat(b core.Beat, now core.Tick) []core.Action {
	*m.steps++
	return m.Machine.OnBeat(b, now)
}

func (m countingMachine) Crash(now core.Tick) []core.Action {
	*m.steps++
	return m.Machine.Crash(now)
}

// clusterRun is the outcome of one cluster driven to the horizon with
// its highest participant crashed clusterCrashLead ticks before it.
type clusterRun struct {
	stats         netem.LinkStats
	events        uint64
	liveness      int
	steps         uint64
	activeAtCrash bool
	suspectAt     core.Tick // -1 when the victim was never suspected after the crash
	crashAt       core.Tick
}

// runCluster is one cluster of a sim_cluster pass; the detector probes
// reuse it on the timer-wheel backend.
func runCluster(cfg detector.ClusterConfig, horizon sim.Time, tr *tracer) (clusterRun, error) {
	r := clusterRun{suspectAt: -1, crashAt: core.Tick(horizon - clusterCrashLead)}
	if tr != nil && tr.on {
		cfg.WrapMachine = func(_ netem.NodeID, m core.Machine) core.Machine {
			return countingMachine{Machine: m, steps: &r.steps}
		}
	}
	id := tr.begin("detector", "detector.NewCluster")
	c, err := detector.NewCluster(cfg)
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("detector", "Cluster.Start")
	err = c.Start()
	tr.end(id)
	if err != nil {
		return r, err
	}
	id = tr.begin("sim", "Sim.RunUntil")
	c.Sim.RunUntil(sim.Time(r.crashAt))
	tr.end(id)
	victim := core.ProcID(len(c.Participants))
	r.activeAtCrash = c.Coordinator.Status() == core.StatusActive
	c.Participants[victim].Crash()
	id = tr.begin("sim", "Sim.RunUntil")
	c.Sim.RunUntil(horizon)
	tr.end(id)
	for _, e := range c.Events {
		if e.Kind == detector.EventSuspect && e.Node == netem.NodeID(core.CoordinatorID) &&
			e.Proc == victim && e.Time >= r.crashAt {
			r.suspectAt = e.Time
			break
		}
	}
	r.stats = c.Net.Stats().Total
	r.events = c.Sim.EventsExecuted()
	r.liveness = len(c.Events)
	return r, nil
}

func (c *clusters) pass(_ int, seed int64, tr *tracer) passOut {
	var out passOut
	for _, sh := range c.shapes {
		cfg := clusterConfig(sh, seed)
		r, err := runCluster(cfg, c.horizon, tr)
		if err != nil {
			out.check(false, "%s: %v", sh.name, err)
			continue
		}
		// A loss burst longer than the protocol tolerates inactivates the
		// coordinator before the crash: a legal protocol outcome (about
		// one cluster in 200 at this loss rate), counted, not failed.
		bound := cfg.Core.CoordinatorDetectionBound() + cfg.Core.TMin
		detected := r.suspectAt >= 0 && r.suspectAt-r.crashAt <= bound
		out.check(detected || !r.activeAtCrash, "%s seed %d: crash at %d, suspected at %d, bound %d",
			sh.name, seed, r.crashAt, r.suspectAt, bound)
		if !r.activeAtCrash {
			out.count("cluster.false_inactivations", 1)
		}
		out.ops += r.stats.Sent
		out.count("netem.msgs", float64(r.stats.Sent))
		out.count("netem.lost", float64(r.stats.Lost))
		out.count("sim.events", float64(r.events))
		out.count("core.steps", float64(r.steps))
		out.digests = append(out.digests, digest{
			Key: scaleKey(c.tiny, "sim_cluster/%s/seed=%d", sh.name, seed),
			Value: fmt.Sprintf("sent=%d delivered=%d lost=%d liveness_events=%d suspect_at=%d",
				r.stats.Sent, r.stats.Delivered, r.stats.Lost, r.liveness, r.suspectAt),
		})
	}
	return out
}

// ---- sim_campaign -------------------------------------------------------

// campaignEnvelope is hbsim -exp topo's degradation envelope.
var campaignEnvelope = models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}

// campaignShape is one of the three topology campaigns.
type campaignShape struct {
	name     string
	variant  models.Variant
	n        int
	scenario func(int) (scenario.TopologyScenario, error)
}

var campaignShapes = []campaignShape{
	{"rack_loss", models.Static, 2, scenario.RackLossScenario},
	{"wan_delay", models.Expanding, 1, scenario.WANDelayScenario},
	{"churn_storm", models.Dynamic, 1, scenario.ChurnStormScenario},
}

const (
	campaignHorizon = 1200
	campaignTrials  = 20
)

// adaptiveCluster is the cluster configuration hbsim -exp topo deploys.
func adaptiveCluster(variant models.Variant) detector.ClusterConfig {
	env := campaignEnvelope
	return detector.ClusterConfig{
		Adaptive: &core.AdaptiveOptions{
			Envelope: core.Envelope{
				TMinLo: core.Tick(env.TMinLo), TMinHi: core.Tick(env.TMinHi),
				TMaxLo: core.Tick(env.TMaxLo), TMaxHi: core.Tick(env.TMaxHi),
			},
			Window: 2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
		},
		AllowRejoin: variant == models.Dynamic,
	}
}

// campaignCheck builds the shape's conformance check with every
// envelope level's specification prepared.
func campaignCheck(sh campaignShape, n int, tr *tracer) (*conform.CampaignCheck, error) {
	tmin, tmax := campaignEnvelope.Point(0)
	check := &conform.CampaignCheck{
		Model:    models.Config{TMin: tmin, TMax: tmax, Variant: sh.variant, N: n, Fixed: true},
		Envelope: &campaignEnvelope,
		Opts:     mc.Options{Workers: 1},
	}
	for level := 0; level < campaignEnvelope.Levels(); level++ {
		id := tr.begin("conform", fmt.Sprintf("CampaignCheck.SpecAt %s level %d", sh.name, level))
		_, err := check.SpecAt(level)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	return check, nil
}

// campaignConfig assembles one streaming topology campaign. The tiny
// scale runs two trials on one participant, whose specifications build
// in milliseconds.
func campaignConfig(sh campaignShape, tiny bool, tr *tracer) (scenario.CampaignConfig, error) {
	n, trials := sh.n, campaignTrials
	if tiny {
		n, trials = 1, 2
	}
	id := tr.begin("faults", "scenario."+sh.name+" (faults.ParseSchedule)")
	sc, err := sh.scenario(n)
	tr.end(id)
	if err != nil {
		return scenario.CampaignConfig{}, err
	}
	check, err := campaignCheck(sh, n, tr)
	if err != nil {
		return scenario.CampaignConfig{}, err
	}
	return scenario.CampaignConfig{
		Cluster:  adaptiveCluster(sh.variant),
		Schedule: sc.Schedule,
		Horizon:  campaignHorizon,
		Trials:   trials,
		Conform:  check,
		Stream:   true,
		Workers:  1,
	}, nil
}

type campaign struct {
	cfgs []scenario.CampaignConfig
}

func setupCampaign(_ int64, tiny bool, tr *tracer) (instance, error) {
	c := &campaign{}
	for _, sh := range campaignShapes {
		cfg, err := campaignConfig(sh, tiny, tr)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: %w", sh.name, err)
		}
		c.cfgs = append(c.cfgs, cfg)
	}
	return c, nil
}

// runCampaign runs one campaign and checks it trial by trial: no
// unconfirmed divergence and no schedule event that failed to apply.
func runCampaign(out *passOut, name string, cfg scenario.CampaignConfig, tr *tracer) *scenario.CampaignResult {
	id := tr.begin("scenario", "scenario.RunCampaign "+name)
	res, err := scenario.RunCampaign(cfg)
	tr.end(id)
	if err != nil {
		for t := 0; t < cfg.Trials; t++ {
			out.check(false, "%s: %v", name, err)
		}
		return nil
	}
	bad := res.ScheduleErrors
	first := ""
	for _, inc := range res.Incidents {
		if inc.Kind == conform.IncidentDivergence {
			bad++
			if first == "" {
				first = inc.String()
			}
		}
	}
	for t := 0; t < cfg.Trials; t++ {
		out.check(t >= bad, "%s seed %d: %d schedule errors, first divergence: %s",
			name, cfg.Seed, res.ScheduleErrors, first)
	}
	out.ops += uint64(cfg.Trials)
	out.count("scenario.retunes", float64(res.Retunes))
	out.count("scenario.saturations", float64(res.Saturations))
	out.count("conform.incidents", float64(len(res.Incidents)))
	out.count("faults.intercepted", float64(res.Faults.Intercepted))
	return res
}

func (c *campaign) pass(_ int, seed int64, tr *tracer) passOut {
	var out passOut
	for k, cfg := range c.cfgs {
		cfg.Seed = seed
		runCampaign(&out, campaignShapes[k].name, cfg, tr)
	}
	return out
}

// ---- mc_sweep -----------------------------------------------------------

var (
	sweepTimes  = [][2]core.Tick{{2, 8}, {2, 16}, {4, 16}, {8, 16}, {2, 32}, {8, 32}}
	sweepLosses = []float64{.01, .02, .05, .1, .2, .3, .5}
)

type sweep struct {
	variants []ensemble.Variant
	trials   int
	tiny     bool
}

func setupSweep(_ int64, tiny bool, _ *tracer) (instance, error) {
	s := &sweep{variants: ensemble.Variants(3), trials: 2000, tiny: tiny}
	if tiny {
		s.trials = 40
	}
	return s, nil
}

func (s *sweep) pass(_ int, seed int64, tr *tracer) passOut {
	var out passOut
	h := fnv.New64a()
	var detected, missed, falseTrials int
	var rounds uint64

	id := tr.begin("ensemble", "ensemble.SweepDetection")
	det, err := ensemble.SweepDetection(s.variants, sweepTimes, s.trials, seed, 1)
	tr.end(id)
	// roundsOf books a point's rounds under the engine path its variant
	// takes: points come back variant-major.
	roundsOf := func(point, perVariant int, r uint64) {
		path := "ensemble.rounds.generic"
		if s.variants[point/perVariant].Protocol == ensemble.ProtocolBinary {
			path = "ensemble.rounds.binary"
		}
		out.count(path, float64(r))
		rounds += r
	}
	for i, p := range det {
		// The detection sweep is loss-free, so every crash must be
		// suspected, and within the corrected bound.
		out.check(p.Detected+p.Missed == p.Trials && p.Missed == 0 && p.Max <= float64(p.Bound),
			"detection %s (%d,%d): detected %d missed %d of %d, max delay %v, bound %d",
			p.Variant, p.TMin, p.TMax, p.Detected, p.Missed, p.Trials, p.Max, p.Bound)
		fmt.Fprintf(h, "%+v\n", p)
		detected += p.Detected
		missed += p.Missed
		roundsOf(i, len(sweepTimes), p.Rounds)
		out.ops += uint64(p.Trials)
	}
	for missing := len(s.variants)*len(sweepTimes) - len(det); missing > 0; missing-- {
		out.check(false, "detection sweep: %v", err)
	}

	id = tr.begin("ensemble", "ensemble.SweepReliability")
	rel, err := ensemble.SweepReliability(s.variants, 2, 16, sweepLosses, s.trials, seed, 1)
	tr.end(id)
	for i, p := range rel {
		out.check(p.Trials == s.trials && p.FalseTrials <= p.Trials,
			"reliability %s loss %v: %d false of %d", p.Variant, p.Loss, p.FalseTrials, p.Trials)
		fmt.Fprintf(h, "%+v\n", p)
		falseTrials += p.FalseTrials
		roundsOf(i, len(sweepLosses), p.Rounds)
		out.ops += uint64(p.Trials)
	}
	for missing := len(s.variants)*len(sweepLosses) - len(rel); missing > 0; missing-- {
		out.check(false, "reliability sweep: %v", err)
	}

	out.digests = append(out.digests, digest{
		Key: scaleKey(s.tiny, "mc_sweep/seed=%d", seed),
		Value: fmt.Sprintf("detected=%d missed=%d false_trials=%d rounds=%d points_hash=%016x",
			detected, missed, falseTrials, rounds, h.Sum64()),
	})
	return out
}

// ---- fleet_epochs -------------------------------------------------------

const (
	fleetWarmupEpochs = 5
	fleetPassEpochs   = 4
	// fleetGoldenPass is the pass after which the fleet digest is pinned:
	// the last of the passes every run makes.
	fleetGoldenPass = minPasses - 1
)

type fleetRun struct {
	f    *fleet.Fleet
	seed int64
	tiny bool
}

func fleetConfig(seed int64, tiny bool) fleet.Config {
	cfg := fleet.Config{
		Clusters: 16384, ClusterSize: 64, Shards: 64, Workers: 1,
		Core:     core.Config{TMin: 2, TMax: 16},
		LossProb: 0.01, KillEvery: 64, Seed: seed,
	}
	if tiny {
		cfg.Clusters, cfg.ClusterSize, cfg.Shards = 64, 8, 4
	}
	return cfg
}

func setupFleet(seed int64, tiny bool, tr *tracer) (instance, error) {
	id := tr.begin("fleet", "fleet.New")
	f, err := fleet.New(fleetConfig(seed, tiny))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("fleet", "Fleet.RunEpochs warm-up")
	err = f.RunEpochs(fleetWarmupEpochs)
	tr.end(id)
	return &fleetRun{f: f, seed: seed, tiny: tiny}, err
}

// The fleet is the one workload whose passes share state: pass i
// advances the same fleet, seeded at set-up, by four more epochs.
func (r *fleetRun) pass(i int, _ int64, tr *tracer) passOut {
	var out passOut
	before := r.f.Stats()
	var err error
	if tr != nil && tr.on {
		for e := 0; e < fleetPassEpochs && err == nil; e++ {
			id := tr.begin("fleet", "Fleet.RunEpochs(1)")
			err = r.f.RunEpochs(1)
			tr.end(id)
		}
	} else {
		err = r.f.RunEpochs(fleetPassEpochs)
	}
	st := r.f.Stats()
	out.check(err == nil && st.MissedDeadlines == before.MissedDeadlines,
		"missed deadlines %d -> %d, err %v", before.MissedDeadlines, st.MissedDeadlines, err)
	out.check(st.SilentLinks == 0, "%d silent links", st.SilentLinks)
	out.check(st.StaleChildren == before.StaleChildren,
		"stale children %d -> %d", before.StaleChildren, st.StaleChildren)
	out.check(st.LatencyOverflow == before.LatencyOverflow,
		"latency overflow %d -> %d", before.LatencyOverflow, st.LatencyOverflow)
	out.ops = st.Beats - before.Beats
	out.count("fleet.beats", float64(out.ops))
	out.count("fleet.replies", float64(st.Replies-before.Replies))
	out.count("fleet.losses", float64(st.Losses-before.Losses))
	if i == fleetGoldenPass {
		out.digests = append(out.digests, digest{
			Key: scaleKey(r.tiny, "fleet_epochs/seed=%d/epoch=%d", r.seed, st.Epochs),
			Value: fmt.Sprintf("digest=%016x beats=%d kills=%d detections=%d false_suspects=%d",
				r.f.Digest(), st.Beats, st.Kills, st.Detections, st.FalseSuspects),
		})
	}
	return out
}
