package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/ta"
)

// A probe is a tight loop over one layer's public API alone, on inputs
// shaped like a workload's, giving a unit cost the harness cannot see
// from outside a call. Probes do fixed work, so their counts repeat
// exactly for a seed.

// probeCtx carries what the probes share.
type probeCtx struct {
	seed int64
	tiny bool
	// m collects the per-layer metrics by name.
	m map[string]float64
	// aux holds unit costs that are inputs to the attribution but not
	// metrics of their own (per-message costs of the cluster stack,
	// conformance events per message).
	aux map[string]float64
}

// n scales an iteration count down for the unit-test scale.
func (c *probeCtx) n(full int) int {
	if c.tiny {
		return max(full/200, 8)
	}
	return full
}

// sink keeps results the probes compute alive, so the compiler cannot
// remove the measured calls.
var sink uint64

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perCall times n calls of fn three times over and returns the median
// nanoseconds per call and the allocations per call of the last round.
func perCall(n int, fn func()) (ns, allocs float64) {
	var rounds [3]float64
	for r := range rounds {
		before := mallocs()
		t := nowNS()
		for i := 0; i < n; i++ {
			fn()
		}
		rounds[r] = float64(nowNS()-t) / float64(n)
		allocs = float64(mallocs()-before) / float64(n)
	}
	return median(rounds[:]), allocs
}

// timed returns fn's duration in nanoseconds.
func timed(fn func() error) (float64, error) {
	t := nowNS()
	err := fn()
	return float64(nowNS() - t), err
}

// runProbes runs every layer's probe and returns the per-layer metrics.
func runProbes(seed int64, tiny bool) (*probeCtx, error) {
	c := &probeCtx{seed: seed, tiny: tiny, m: map[string]float64{}, aux: map[string]float64{}}
	for _, p := range []struct {
		layer string
		run   func(*probeCtx) error
	}{
		{"sim", probeSim}, {"netem", probeNetem}, {"core", probeCore},
		{"detector", probeDetector}, {"faults", probeFaults},
		{"conform+scenario", probeCampaign}, {"ta", probeTA},
		{"models", probeModels}, {"mc", probeMC}, {"ensemble", probeEnsemble},
		{"stats", probeStats}, {"fleet", probeFleet},
	} {
		if err := p.run(c); err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	return c, nil
}

// ---- sim ----------------------------------------------------------------

func probeSim(c *probeCtx) error {
	rng := rand.New(rand.NewSource(c.seed))
	delay := func() sim.Time { return sim.Time(1 + rng.Intn(64)) }

	// Heap backend, as the detector uses it: every event schedules its
	// successor, so pending stays at p while Step pops and runs one.
	heapAt := func(p int) (ns, allocs float64) {
		s := sim.New(sim.WithSeed(c.seed))
		var fn sim.Event
		fn = func() {
			if _, err := s.Schedule(delay(), fn); err != nil {
				panic(err) // a positive delay is never in the past
			}
		}
		for i := 0; i < p; i++ {
			fn()
		}
		return perCall(c.n(400_000), func() { s.Step() })
	}
	c.m["sim.heap_event_ns.p64"], c.m["sim.event_allocs"] = heapAt(64)
	c.m["sim.heap_event_ns.p16k"], _ = heapAt(16384)

	// Wheel backend, as the fleet uses it: Pop one entry, Schedule its
	// successor.
	wheelAt := func(p int) float64 {
		w := sim.NewTimerWheel()
		for i := 0; i < p; i++ {
			w.Schedule(delay(), uint32(i))
		}
		ns, _ := perCall(c.n(400_000), func() {
			payload, at, _ := w.Pop()
			w.Schedule(at+delay(), payload)
		})
		return ns
	}
	c.m["sim.wheel_event_ns.p64"] = wheelAt(64)
	c.m["sim.wheel_event_ns.p16k"] = wheelAt(16384)

	// Re-arm: cancel a pending timer and schedule its replacement, the
	// watchdog pattern, at 64 pending.
	s := sim.New(sim.WithSeed(c.seed))
	nop := sim.Event(func() {})
	var timers [64]sim.Timer
	for i := range timers {
		timers[i], _ = s.Schedule(delay(), nop)
	}
	i := 0
	c.m["sim.heap_rearm_ns"], _ = perCall(c.n(400_000), func() {
		timers[i].Cancel()
		timers[i], _ = s.Schedule(delay(), nop)
		i = (i + 1) % len(timers)
	})
	w := sim.NewTimerWheel()
	var wts [64]sim.WheelTimer
	for i := range wts {
		wts[i] = w.Schedule(delay(), uint32(i))
	}
	c.m["sim.wheel_rearm_ns"], _ = perCall(c.n(400_000), func() {
		w.Cancel(wts[i])
		wts[i] = w.Schedule(delay(), uint32(i))
		i = (i + 1) % len(wts)
	})
	return nil
}

// ---- netem --------------------------------------------------------------

// sendDeliver times Send plus the delivery event, per message, through
// the transport wrap builds over a fresh two-node network.
func sendDeliver(c *probeCtx, link netem.LinkConfig, wrap func(*sim.Simulator, *netem.Network) netem.Transport) (float64, error) {
	s := sim.New(sim.WithSeed(c.seed))
	net, err := netem.NewNetwork(s, link)
	if err != nil {
		return 0, err
	}
	tp := wrap(s, net)
	for id := netem.NodeID(0); id < 2; id++ {
		if err := tp.Register(id, func(m netem.Message) { sink += uint64(len(m.Payload)) }); err != nil {
			return 0, err
		}
	}
	payload := core.Beat{From: 1, Stay: true}.Marshal()
	const batch = 16
	ns, _ := perCall(c.n(40_000), func() {
		for i := 0; i < batch; i++ {
			if err := tp.Send(0, 1, payload); err != nil {
				panic(err) // both nodes are registered
			}
		}
		s.Run()
	})
	return ns / batch, nil
}

func bareNet(_ *sim.Simulator, net *netem.Network) netem.Transport { return net }

var lossyLink = netem.LinkConfig{LossProb: 0.05, MaxDelay: 3}

func probeNetem(c *probeCtx) (err error) {
	if c.m["netem.send_deliver_ns"], err = sendDeliver(c, netem.LinkConfig{}, bareNet); err != nil {
		return err
	}
	c.m["netem.send_deliver_ns.lossy"], err = sendDeliver(c, lossyLink, bareNet)
	return err
}

// ---- core ---------------------------------------------------------------

// driveCoordinator scripts a coordinator-shaped machine: fire its round
// timer when due, answer every beat it sends at once. It returns the
// number of machine steps made.
func driveCoordinator(m core.Machine, rounds int) int {
	steps := 1
	now, next := core.Tick(0), core.Tick(0)
	var sends []core.ProcID
	scan := func(acts []core.Action) {
		for _, a := range acts {
			switch {
			case a.Kind == core.ActSendBeat:
				sends = append(sends, a.To)
			case a.Kind == core.ActSetTimer && a.ID == core.TimerRound:
				next = now + a.Delay
			}
		}
	}
	scan(m.Start(now))
	for r := 0; r < rounds && m.Status() == core.StatusActive; r++ {
		now = next
		sends = sends[:0]
		scan(m.OnTimer(core.TimerRound, now))
		steps++
		for _, to := range sends {
			m.OnBeat(core.Beat{From: to, Stay: true}, now)
			steps++
		}
	}
	return steps
}

// stepNS times a scripted machine built by mk, per step.
func stepNS(c *probeCtx, mk func() (core.Machine, error), drive func(core.Machine, int) int) (ns, allocs float64, err error) {
	m, err := mk()
	if err != nil {
		return 0, 0, err
	}
	rounds := c.n(200_000)
	before := mallocs()
	t := nowNS()
	steps := drive(m, rounds)
	ns = float64(nowNS()-t) / float64(steps)
	return ns, float64(mallocs()-before) / float64(steps), nil
}

// driveResponder scripts a participant-side machine: one coordinator
// beat per round, which it answers and re-arms its watchdog on.
func driveResponder(m core.Machine, rounds int) int {
	m.Start(0)
	for r := 1; r <= rounds; r++ {
		m.OnBeat(core.Beat{From: core.CoordinatorID, Stay: true}, core.Tick(r)*16)
	}
	return rounds + 1
}

func members(n int) []core.ProcID {
	out := make([]core.ProcID, n)
	for i := range out {
		out[i] = core.ProcID(i + 1)
	}
	return out
}

func probeCore(c *probeCtx) error {
	cfg := core.Config{TMin: 2, TMax: 16}
	fixed := func(n int) core.CoordinatorConfig {
		return core.CoordinatorConfig{Config: cfg, Membership: core.MembershipFixed, Members: members(n)}
	}
	for _, p := range []struct {
		name  string
		mk    func() (core.Machine, error)
		drive func(core.Machine, int) int
	}{
		{"coord_n1", func() (core.Machine, error) { return core.NewCoordinator(fixed(1)) }, driveCoordinator},
		{"coord_n8", func() (core.Machine, error) { return core.NewCoordinator(fixed(8)) }, driveCoordinator},
		{"responder", func() (core.Machine, error) { return core.NewResponder(cfg, 1) }, driveResponder},
		{"participant", func() (core.Machine, error) { return core.NewParticipant(cfg, 1, true) }, driveResponder},
		{"plain", func() (core.Machine, error) {
			return core.NewPlainCoordinator(core.PlainConfig{Period: 16, MissLimit: 1, Members: members(1)})
		}, driveCoordinator},
		{"adaptive", func() (core.Machine, error) {
			return core.NewAdaptiveCoordinator(fixed(2), *adaptiveCluster(models.Static).Adaptive)
		}, driveCoordinator},
	} {
		ns, allocs, err := stepNS(c, p.mk, p.drive)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		c.m["core.step_ns."+p.name] = ns
		if p.name == "coord_n8" {
			c.m["core.step_allocs"] = allocs
		}
	}

	wait, received := cfg.TMax, false
	c.m["core.nextwait_ns"], _ = perCall(c.n(2_000_000), func() {
		next, ok := cfg.NextWait(wait, received)
		if !ok {
			next = cfg.TMax
		}
		wait, received = next, next == cfg.TMin
		sink += uint64(next)
	})
	buf := make([]byte, 0, 64)
	beat := core.Beat{From: 3, Stay: true, Inc: 1}
	c.m["core.beat_codec_ns"], _ = perCall(c.n(2_000_000), func() {
		buf = beat.AppendMarshal(buf[:0])
		b, err := core.UnmarshalBeat(buf)
		if err != nil {
			panic(err) // round trip of a well-formed beat
		}
		sink += uint64(b.From)
	})
	sum := core.Summary{Cluster: 7, Epoch: 3, Total: 64, Alive: 63, Detections: 1}
	c.m["core.summary_codec_ns"], _ = perCall(c.n(2_000_000), func() {
		buf = sum.AppendMarshal(buf[:0])
		s, _, err := core.UnmarshalSummary(buf)
		if err != nil {
			panic(err) // round trip of a well-formed summary
		}
		sink += uint64(s.Alive)
	})
	return nil
}

// ---- detector -----------------------------------------------------------

func probeDetector(c *probeCtx) error {
	inst, err := setupClusters(c.seed, c.tiny, nil)
	if err != nil {
		return err
	}
	cl := inst.(*clusters)
	horizon := cl.horizon / 10

	// The four sim_cluster shapes at a tenth of the horizon, on each
	// queue backend; the heap run counts machine steps at WrapMachine.
	tr := &tracer{on: true}
	var heap, wheel struct {
		ns                        float64
		events, steps, sent, lost uint64
	}
	for _, sh := range cl.shapes {
		cfg := clusterConfig(sh, c.seed)
		t := nowNS()
		r, err := runCluster(cfg, horizon, nil)
		heap.ns += float64(nowNS() - t)
		if err != nil {
			return err
		}
		heap.events += r.events
		heap.sent += r.stats.Sent
		heap.lost += r.stats.Lost

		counted, err := runCluster(cfg, horizon, tr)
		if err != nil {
			return err
		}
		heap.steps += counted.steps

		cfg.TimerWheel = true
		t = nowNS()
		r, err = runCluster(cfg, horizon, nil)
		wheel.ns += float64(nowNS() - t)
		if err != nil {
			return err
		}
		wheel.events += r.events
	}
	c.m["detector.events_per_s.heap"] = float64(heap.events) / heap.ns * 1e9
	c.m["detector.events_per_s.wheel"] = float64(wheel.events) / wheel.ns * 1e9
	c.m["netem.msgs"] = float64(heap.sent)
	c.m["netem.drop_share"] = float64(heap.lost) / float64(heap.sent)
	c.m["core.steps"] = float64(heap.steps)

	static8 := clusterConfig(cl.shapes[1], c.seed)
	ns, _ := perCall(c.n(2_000), func() {
		cluster, err := detector.NewCluster(static8)
		if err == nil {
			err = cluster.Start()
		}
		if err != nil {
			panic(err) // the configuration ran above
		}
	})
	c.m["detector.new_cluster_us"] = ns / 1e3

	// Per sent message, what the cluster stack costs by layer: the unit
	// costs of the other probes times this run's exact counts. What the
	// probes do not explain is the detector's own dispatch.
	msgs := float64(heap.sent)
	meanStepNS := (c.m["core.step_ns.coord_n8"] + c.m["core.step_ns.responder"] + c.m["core.step_ns.participant"]) / 3
	c.aux["sim_ns_per_msg"] = float64(heap.events) * c.m["sim.heap_event_ns.p64"] / msgs
	c.aux["netem_ns_per_msg"] = max(0, c.m["netem.send_deliver_ns.lossy"]-c.m["sim.heap_event_ns.p64"])
	c.aux["core_ns_per_msg"] = float64(heap.steps) * meanStepNS / msgs
	self := heap.ns/msgs - c.aux["sim_ns_per_msg"] - c.aux["netem_ns_per_msg"] - c.aux["core_ns_per_msg"]
	c.aux["detector_ns_per_msg"] = self
	c.m["detector.self_ns_per_event"] = self * msgs / float64(heap.events)
	return nil
}

// ---- faults -------------------------------------------------------------

func probeFaults(c *probeCtx) error {
	sc, err := scenario.RackLossScenario(2)
	if err != nil {
		return err
	}
	ns, _ := perCall(c.n(4_000), func() {
		if _, err := faults.ParseSchedule(sc.Text); err != nil {
			panic(err) // the scenario constructor parsed the same text
		}
	})
	c.m["faults.parse_us"] = ns / 1e3

	wrapped, err := sendDeliver(c, lossyLink, func(s *sim.Simulator, net *netem.Network) netem.Transport {
		return faults.Wrap(net, netem.SimTicker{Sim: s}, c.seed)
	})
	c.m["faults.wrap_send_ns"] = wrapped - c.m["netem.send_deliver_ns.lossy"]
	return err
}

// ---- conform and scenario -----------------------------------------------

// recordTrial runs one trial of a topology campaign with the offline
// recorder attached, exactly as scenario.RunCampaign assembles it, and
// returns the abstract trace, the messages lost and the messages sent.
func recordTrial(cfg scenario.CampaignConfig, seed int64) (events []conform.Event, lost, sent uint64, err error) {
	cc := cfg.Cluster
	base, err := conform.ClusterFor(cfg.Conform.Model)
	if err != nil {
		return nil, 0, 0, err
	}
	cc.Protocol, cc.Core, cc.N = base.Protocol, base.Core, base.N
	cc.Seed = seed
	sched := *cfg.Schedule
	cc.Faults = &sched
	rec := conform.NewRecorder()
	cc.Observe = rec
	cl, err := detector.NewCluster(cc)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := cl.Start(); err != nil {
		return nil, 0, 0, err
	}
	cl.Sim.RunUntil(cfg.Horizon)
	cl.Stop()
	fs := cl.Faults.Stats()
	lost = cl.Net.Stats().Total.Lost + fs.DroppedMuted + fs.DroppedPartition + fs.DroppedLoss
	return rec.Events(), lost, fs.Intercepted, nil
}

func probeCampaign(c *probeCtx) error {
	// A quarter of a pass's trials per campaign.
	const trials = campaignTrials / 4
	var retunes, saturations float64
	var feedNS, offlineNS, feedAllocs, nEvents, nSent float64
	var maxFrontier, incidents, unconfirmed int
	for k, sh := range campaignShapes {
		// Building the specifications is timed by the same spans a traced
		// set-up records; the metric is the largest one, rack-loss at the
		// envelope's widest level.
		tr := &tracer{on: true}
		cfg, err := campaignConfig(sh, c.tiny, tr)
		if err != nil {
			return err
		}
		cfg.Trials = min(cfg.Trials, trials)
		if k == 0 {
			widest := tr.spans[len(tr.spans)-1]
			c.m["conform.build_spec_ms"] = float64(widest.EndNS-widest.StartNS) / 1e6
		}
		cfg.Seed = c.seed
		var out passOut
		t := nowNS()
		res := runCampaign(&out, sh.name, cfg, nil)
		c.m["scenario.trial_ms."+sh.name] = float64(nowNS()-t) / 1e6 / float64(cfg.Trials)
		if res == nil {
			return fmt.Errorf("campaign %s: %v", sh.name, out.fails)
		}
		retunes += float64(res.Retunes)
		saturations += float64(res.Saturations)

		// The same trials recorded, then replayed through the streaming
		// checker event by event and through the offline loop: the
		// conformance cost alone, in the campaigns' own mix.
		for trial := 0; trial < cfg.Trials; trial++ {
			events, lost, sent, err := recordTrial(cfg, c.seed+int64(trial))
			if err != nil {
				return err
			}
			checker, err := conform.NewStreamChecker(conform.StreamConfig{Check: cfg.Conform, Horizon: campaignHorizon})
			if err != nil {
				return err
			}
			before := mallocs()
			t := nowNS()
			for _, ev := range events {
				checker.Feed(ev)
			}
			feedNS += float64(nowNS() - t)
			feedAllocs += float64(mallocs() - before)
			stream, err := checker.Finish(lost)
			if err != nil {
				return err
			}
			maxFrontier = max(maxFrontier, stream.MaxFrontierSeen)
			incidents += len(stream.Incidents)
			if stream.Unconfirmed != nil {
				unconfirmed++
			}
			t = nowNS()
			if _, err := cfg.Conform.CheckTraceAdaptive(events, campaignHorizon); err != nil {
				return err
			}
			offlineNS += float64(nowNS() - t)
			nEvents += float64(len(events))
			nSent += float64(sent)
		}
	}
	c.m["scenario.retunes"] = retunes
	c.m["scenario.saturations"] = saturations
	c.m["conform.feed_ns_per_event"] = feedNS / nEvents
	c.m["conform.feed_allocs_per_event"] = feedAllocs / nEvents
	c.m["conform.offline_ns_per_event"] = offlineNS / nEvents
	c.m["conform.max_frontier"] = float64(maxFrontier)
	c.m["conform.incidents"] = float64(incidents)
	c.m["conform.unconfirmed"] = float64(unconfirmed)
	c.aux["conform_events_per_msg"] = nEvents / nSent
	return nil
}

// ---- ta -----------------------------------------------------------------

func probeTA(c *probeCtx) error {
	m, err := models.Build(models.Config{Variant: models.Dynamic, N: 1, TMin: 9, TMax: 10})
	if err != nil {
		return err
	}
	// Sample states along seeded random walks from the initial state,
	// each short enough not to settle in the inactivated tail where tick
	// is the only move.
	const walkLength = 64
	rng := rand.New(rand.NewSource(c.seed))
	states := make([]ta.State, 0, c.n(4096))
	cur := m.Net.Initial()
	var buf []ta.Transition
	for len(states) < cap(states) {
		states = append(states, cur)
		buf = m.Net.Successors(&cur, buf[:0])
		if len(buf) == 0 || len(states)%walkLength == 0 {
			cur = m.Net.Initial()
			continue
		}
		cur = buf[rng.Intn(len(buf))].Target.Clone()
	}

	// Three rounds of eight sweeps over the sample. The loop is spelled
	// out because the recycled Successors buffer must not be captured by
	// a closure (hbvet buffer-reuse).
	const sweeps = 8
	calls := sweeps * len(states)
	var rounds [3]float64
	trans := 0
	before := mallocs()
	for r := range rounds {
		t := nowNS()
		for sweep := 0; sweep < sweeps; sweep++ {
			for i := range states {
				buf = m.Net.Successors(&states[i], buf[:0])
				trans += len(buf)
			}
		}
		rounds[r] = float64(nowNS()-t) / float64(calls)
	}
	ns := median(rounds[:])
	c.m["ta.succ_ns_per_call"] = ns
	c.m["ta.succ_allocs"] = float64(mallocs()-before) / float64(len(rounds)*calls)
	c.m["ta.succ_ns_per_trans"] = ns * float64(len(rounds)*calls) / float64(trans)

	var key []byte
	scratch := cur.Clone()
	i := 0
	c.m["ta.key_codec_ns"], _ = perCall(calls, func() {
		s := &states[i]
		key = s.AppendKey(key[:0])
		scratch.DecodeKey(key, len(s.Locs), m.Net.NumClocks())
		i = (i + 1) % len(states)
	})
	sink += uint64(trans)
	return nil
}

// ---- models -------------------------------------------------------------

func probeModels(c *probeCtx) error {
	variants := []models.Variant{
		models.Binary, models.RevisedBinary, models.TwoPhase,
		models.Static, models.Expanding, models.Dynamic,
	}
	v := 0
	ns, _ := perCall(c.n(3_000), func() {
		if _, err := models.Build(models.Config{Variant: variants[v], N: 1, TMin: 9, TMax: 10}); err != nil {
			panic(err) // a valid configuration
		}
		v = (v + 1) % len(variants)
	})
	c.m["models.build_us"] = ns / 1e3

	inst, err := setupTables(c.seed, c.tiny, nil)
	if err != nil {
		return err
	}
	t := inst.(*tables)
	for k, spec := range t.specs {
		if k == 1 && !c.tiny {
			// Table 2 at tmin=5 only (violated and satisfied cells): the
			// full table is check_tables itself and costs 3 s.
			spec.TMins = []int32{5}
		}
		ns, err := timed(func() error {
			_, err := models.RunTable(spec)
			return err
		})
		if err != nil {
			return err
		}
		c.m["models.table_ms."+t.names[k]] = ns / 1e6
	}
	return nil
}

// ---- mc -----------------------------------------------------------------

func probeMC(c *probeCtx) error {
	opts := mc.Options{Workers: 1}
	verify := func(cfg models.Config, prop models.Property, opts mc.Options) (v models.Verdict, ns float64, err error) {
		ns, err = timed(func() error {
			v, err = models.Verify(cfg, prop, opts)
			return err
		})
		return v, ns, err
	}
	midCfg := models.Config{Variant: models.Dynamic, N: 1, TMin: 9, TMax: 10}
	largeCfg := models.Config{Variant: models.Static, N: 2, TMin: 9, TMax: 10}
	if c.tiny {
		midCfg.TMin, largeCfg.N = 1, 1
	}
	for _, p := range []struct {
		name string
		cfg  models.Config
		prop models.Property
		reps int
	}{
		{"small", models.Config{Variant: models.Binary, N: 1, TMin: 9, TMax: 10}, models.R1, 5},
		{"mid", midCfg, models.R3, 3},
		{"large", largeCfg, models.R2, 1},
	} {
		var times []float64
		var v models.Verdict
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs, bytes := ms.Mallocs, ms.TotalAlloc
		for r := 0; r < p.reps; r++ {
			var ns float64
			var err error
			if v, ns, err = verify(p.cfg, p.prop, opts); err != nil {
				return err
			}
			times = append(times, ns)
		}
		runtime.ReadMemStats(&ms)
		states := float64(v.Result.StatesExplored)
		c.m["mc.states_per_s."+p.name] = states / median(times) * 1e9
		c.m["mc.states."+p.name] = states
		switch p.name {
		case "small":
			c.m["mc.allocs_per_check"] = float64(ms.Mallocs-allocs) / float64(p.reps)
		case "mid":
			_, w2, err := verify(p.cfg, p.prop, mc.Options{Workers: 2})
			if err != nil {
				return err
			}
			c.m["mc.scale_w2"] = median(times) / w2
		case "large":
			c.m["mc.bytes_per_state"] = float64(ms.TotalAlloc-bytes) / states
			taNS := float64(v.Result.TransitionsExplored) * c.m["ta.succ_ns_per_trans"]
			c.m["mc.self_share.large"] = 1 - taNS/median(times)
		}
	}

	// A violated cell: the search stops early and rebuilds the trace.
	cex, ns, err := verify(models.Config{Variant: models.Binary, N: 1, TMin: 1, TMax: 10}, models.R1, opts)
	if err != nil {
		return err
	}
	if cex.Satisfied || len(cex.Result.Trace) == 0 {
		return fmt.Errorf("binary tmin=1 R1 should be violated with a trace")
	}
	c.m["mc.cex_ms"] = ns / 1e6

	// BuildLTS as conform.BuildSpec drives it (monitor-free static n=2
	// at the campaign's widest level), and the weak-trace reduction
	// hblts applies to an isolated process.
	specCfg := models.Config{Variant: models.Static, N: 2, TMin: 2, TMax: 8, Fixed: true, NoMonitor: true}
	if c.tiny {
		specCfg.N = 1
	}
	m, err := models.Build(specCfg)
	if err != nil {
		return err
	}
	var lts *mc.LTS
	ns, err = timed(func() error {
		lts, err = mc.BuildLTS(m.Net, opts)
		return err
	})
	if err != nil {
		return err
	}
	c.m["mc.lts_states_per_s"] = float64(lts.NumStates) / ns * 1e9
	p0, err := models.BuildIsolatedP0(2, 8)
	if err != nil {
		return err
	}
	small, err := mc.BuildLTS(p0, opts)
	if err != nil {
		return err
	}
	ns, err = timed(func() error {
		_, err := small.WeakTraceReduce(opts)
		return err
	})
	c.m["mc.reduce_ms"] = ns / 1e6
	return err
}

// ---- ensemble -----------------------------------------------------------

func probeEnsemble(c *probeCtx) error {
	base := ensemble.Config{
		Protocol: ensemble.ProtocolBinary, Core: core.Config{TMin: 2, TMax: 16}, N: 1,
		Link: netem.LinkConfig{LossProb: 0.05}, Horizon: 4000,
		Trials: c.n(20_000), Seed: c.seed, Workers: 1,
	}
	run := func(cfg ensemble.Config) (res *ensemble.Result, ns float64, err error) {
		ns, err = timed(func() error {
			res, err = ensemble.Run(cfg)
			return err
		})
		return res, ns, err
	}
	rate := func(cfg ensemble.Config) (perS, nsPerRound float64, err error) {
		res, ns, err := run(cfg)
		if err != nil {
			return 0, 0, err
		}
		return float64(cfg.Trials) / ns * 1e9, ns / float64(res.Rounds), nil
	}

	var err error
	var binary float64
	if binary, c.m["ensemble.ns_per_round.binary"], err = rate(base); err != nil {
		return err
	}
	c.m["ensemble.trials_per_s.binary"] = binary
	generic := base
	generic.Protocol, generic.N, generic.Trials = ensemble.ProtocolStatic, 3, base.Trials/4
	if c.m["ensemble.trials_per_s.generic"], c.m["ensemble.ns_per_round.generic"], err = rate(generic); err != nil {
		return err
	}
	fixed := base
	fixed.Core.Fixed = true
	if c.m["ensemble.trials_per_s.fixed_binary"], _, err = rate(fixed); err != nil {
		return err
	}

	// Exact mode draws from per-trial math/rand streams, as the
	// simulator does; the ratio is what the counter streams save.
	exact := base
	exact.Exact, exact.Trials = true, base.Trials/4
	exactRate, _, err := rate(exact)
	if err != nil {
		return err
	}
	c.m["ensemble.exact_ratio"] = binary / exactRate

	// The same Q3 point through the per-trial simulator.
	simTrials := c.n(400)
	ns, err := timed(func() error {
		_, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
			Cluster:  detector.ClusterConfig{Protocol: detector.ProtocolBinary, Core: base.Core},
			LossProb: base.Link.LossProb, Horizon: base.Horizon, Trials: simTrials, Seed: c.seed,
		})
		return err
	})
	if err != nil {
		return err
	}
	c.m["ensemble.vs_scenario"] = binary / (float64(simTrials) / ns * 1e9)

	small := base
	small.Trials = base.Trials / 10
	before := mallocs()
	if _, _, err := run(small); err != nil {
		return err
	}
	c.m["ensemble.allocs_per_run"] = float64(mallocs() - before)

	w2 := base
	w2.Workers = 2
	w2Rate, _, err := rate(w2)
	c.m["ensemble.scale_w2"] = w2Rate / binary
	return err
}

// ---- stats --------------------------------------------------------------

func probeStats(c *probeCtx) error {
	var w stats.Welford
	x := 0.0
	c.m["stats.welford_add_ns"], _ = perCall(c.n(2_000_000), func() {
		w.Add(x)
		x += 0.37
		if x > 48 {
			x = 0
		}
	})
	q, err := stats.NewQuantileSketch(0, 64, 64)
	if err != nil {
		return err
	}
	c.m["stats.sketch_add_ns"], _ = perCall(c.n(2_000_000), func() {
		q.Add(x)
		x += 0.37
		if x > 48 {
			x = 0
		}
	})
	sink += w.N() + q.N()
	return nil
}

// ---- fleet --------------------------------------------------------------

func probeFleet(c *probeCtx) error {
	// An eighth of the fleet_epochs fleet: the same 64 shards, 2048
	// timers per wheel.
	cfg := fleetConfig(c.seed, c.tiny)
	epochs := 6
	if !c.tiny {
		cfg.Clusters = 2048
		epochs = 24
	}
	heapAlloc := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// beatRate builds a fleet, warms it up and times epochs one by one.
	beatRate := func(cfg fleet.Config, epochs int) (f *fleet.Fleet, epochMS []float64, nsPerBeat, allocs float64, err error) {
		if f, err = fleet.New(cfg); err != nil {
			return
		}
		if err = f.RunEpochs(fleetWarmupEpochs); err != nil {
			return
		}
		beats := f.Stats().Beats
		before := mallocs()
		var total float64
		for e := 0; e < epochs; e++ {
			ns, err := timed(func() error { return f.RunEpochs(1) })
			if err != nil {
				return f, nil, 0, 0, err
			}
			epochMS = append(epochMS, ns/1e6)
			total += ns
		}
		allocs = float64(mallocs()-before) / float64(epochs)
		return f, epochMS, total / float64(f.Stats().Beats-beats), allocs, nil
	}

	base := heapAlloc()
	var built *fleet.Fleet
	ns, err := timed(func() (err error) {
		built, err = fleet.New(cfg)
		return err
	})
	if err != nil {
		return err
	}
	c.m["fleet.new_ms"] = ns / 1e6
	c.m["fleet.bytes_per_endpoint"] = (heapAlloc() - base) / float64(built.Endpoints())
	built = nil

	f, epochMS, nsPerBeat, allocs, err := beatRate(cfg, epochs)
	if err != nil {
		return err
	}
	c.m["fleet.epoch_ms_p50"] = median(epochMS)
	c.m["fleet.epoch_ms_p90"] = percentile(epochMS, 90)
	c.m["fleet.ns_per_beat"] = nsPerBeat
	c.m["fleet.allocs_per_epoch"] = allocs
	p50, p99, _ := f.DetectionLatency()
	st := f.Stats()
	c.m["fleet.detect_ticks_p50"] = float64(p50)
	c.m["fleet.detect_ticks_p99"] = float64(p99)
	c.m["fleet.detections"] = float64(st.Detections)
	c.m["fleet.false_suspects"] = float64(st.FalseSuspects)
	c.m["fleet.losses"] = float64(st.Losses)

	quiet := cfg
	quiet.LossProb, quiet.KillEvery = 0, 0
	if _, _, c.m["fleet.quiet_ns_per_beat"], _, err = beatRate(quiet, epochs/3); err != nil {
		return err
	}
	w2 := cfg
	w2.Workers = 2
	_, _, w2NS, _, err := beatRate(w2, epochs/3)
	c.m["fleet.scale_w2"] = nsPerBeat / w2NS
	return err
}

// ---- attribution --------------------------------------------------------

// attribute derives, for the traced workload, the share of a traced pass
// each layer accounts for: an exact per-pass count times the layer's
// probed unit cost, over the pass time. What the model does not explain
// is reported as bench.unattributed_share, not hidden.
func attribute(r *result, aux map[string]float64, tracedPassNS float64) {
	n, m := r.Counts, r.Layer
	ns := map[string]float64{}
	switch r.Workload {
	case "check_tables", "check_large":
		// Per-state cost of the whole check at the workload's size (the
		// tables' cells lie between the small and the mid probe), less
		// the successor generation inside it.
		perState := (1e9/m["mc.states_per_s.small"] + 1e9/m["mc.states_per_s.mid"]) / 2
		if r.Workload == "check_large" {
			perState = 1e9 / m["mc.states_per_s.large"]
		}
		ns["ta"] = n["mc.transitions"] * m["ta.succ_ns_per_trans"]
		ns["models"] = n["models.cells"] * m["models.build_us"] * 1e3
		ns["mc"] = n["mc.states"]*perState - ns["ta"]
	case "sim_cluster", "sim_campaign":
		msgs := n["netem.msgs"]
		if r.Workload == "sim_campaign" {
			msgs = n["faults.intercepted"]
			ns["faults"] = msgs * m["faults.wrap_send_ns"]
			ns["conform"] = msgs * aux["conform_events_per_msg"] * m["conform.feed_ns_per_event"]
			ns["detector"] = float64(r.PassOps[0]) * m["detector.new_cluster_us"] * 1e3
		}
		ns["sim"] = msgs * aux["sim_ns_per_msg"]
		ns["netem"] = msgs * aux["netem_ns_per_msg"]
		ns["core"] = msgs * aux["core_ns_per_msg"]
		ns["detector"] += msgs * aux["detector_ns_per_msg"]
	case "mc_sweep":
		ns["stats"] = float64(r.PassOps[0]) * (m["stats.welford_add_ns"] + m["stats.sketch_add_ns"])
		ns["ensemble"] = n["ensemble.rounds.binary"]*m["ensemble.ns_per_round.binary"] +
			n["ensemble.rounds.generic"]*m["ensemble.ns_per_round.generic"] - ns["stats"]
	case "fleet_epochs":
		ns["sim"] = n["fleet.beats"] * m["sim.wheel_event_ns.p16k"]
		ns["fleet"] = n["fleet.beats"]*m["fleet.ns_per_beat"] - ns["sim"]
	}
	rest := 1.0
	for _, l := range layers {
		share := ns[l] / tracedPassNS
		m["bench.share."+l] = share
		rest -= share
	}
	m["bench.unattributed_share"] = rest
}
