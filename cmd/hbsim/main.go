// Command hbsim runs the quantitative Monte-Carlo experiments (the
// reconstructed 1998 evaluation): steady-state overhead, crash-detection
// latency, and false-detection probability under message loss, for the
// accelerated protocols against the plain fixed-period baseline.
//
//	hbsim -exp overhead
//	hbsim -exp detection -trials 200
//	hbsim -exp reliability -trials 400
//	hbsim -exp topo -trials 70
//	hbsim -exp all
//	hbsim -faults 'crash t=200 node=1; restart t=800 node=1' -trials 50
//	hbsim -faults campaign.txt
//
// -exp topo runs the adaptive topology campaigns (rack-correlated loss,
// asymmetric WAN latency, churn storm) with piecewise conformance
// checking attached online (a conform.StreamChecker rides each trial):
// every retune is confirmed against its envelope level and the run fails
// on any unconfirmed divergence.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams passed in: tables go to w, usage and the
// final error line to stderr.
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment: overhead, detection, reliability, topo or all")
		trials  = fs.Int("trials", 200, "Monte-Carlo trials per data point")
		seed    = fs.Int64("seed", 1, "base random seed")
		sched   = fs.String("faults", "", "fault campaign: a schedule file path or an inline schedule (see internal/faults)")
		horizon = fs.Int64("horizon", 5000, "virtual ticks per fault-campaign trial")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	faultsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "faults" {
			faultsSet = true
		}
	})

	var err error
	switch {
	case faultsSet && *sched == "":
		err = fmt.Errorf("-faults: empty schedule")
	case *sched != "":
		err = campaign(w, *sched, sim.Time(*horizon), *trials, *seed)
	case *exp == "overhead":
		err = overhead(w)
	case *exp == "detection":
		err = detection(w, *trials, *seed)
	case *exp == "reliability":
		err = reliability(w, *trials, *seed)
	case *exp == "topo":
		err = topo(w, stderr, *trials, *seed)
	case *exp == "all":
		if err = overhead(w); err == nil {
			if err = detection(w, *trials, *seed); err == nil {
				err = reliability(w, *trials, *seed)
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hbsim:", err)
		return 1
	}
	return 0
}

// campaign: replay a scripted fault schedule over a self-healing dynamic
// cluster and report survival, healing effort and fault-layer counters.
// The argument is a file path if one exists, otherwise an inline schedule.
func campaign(w io.Writer, arg string, horizon sim.Time, trials int, seed int64) error {
	text := arg
	if b, err := os.ReadFile(arg); err == nil {
		text = string(b)
	}
	sched, err := faults.ParseSchedule(text)
	if err != nil {
		return err
	}
	res, err := scenario.RunCampaign(scenario.CampaignConfig{
		Cluster: detector.ClusterConfig{
			Protocol:    detector.ProtocolDynamic,
			Core:        core.Config{TMin: 2, TMax: 16},
			N:           3,
			AllowRejoin: true,
		},
		Schedule: sched,
		Heal: &detector.SupervisorConfig{
			CheckEvery: 8,
			Backoff:    detector.Backoff{Base: 2, Max: 32, Jitter: 0.25},
		},
		Horizon: horizon,
		Trials:  trials,
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== fault campaign: dynamic protocol (tmin=2, tmax=16, n=3) + supervisor")
	fmt.Fprintln(w, "   schedule:")
	fmt.Fprint(w, indent(sched.Format(), "     "))
	surv, _ := res.Survived.Value()
	fmt.Fprintf(w, "   survived at t=%d:  %.3f of %d trials\n", horizon, surv, trials)
	fmt.Fprintf(w, "   restarts/trial:    %s\n", res.Restarts.Describe())
	fmt.Fprintf(w, "   events/trial:      %s\n", res.Events.Describe())
	fmt.Fprintf(w, "   fault layer:       %+v\n", res.Faults)
	if res.ScheduleErrors > 0 {
		fmt.Fprintf(w, "   WARNING: %d schedule events failed to apply (unknown node?)\n",
			res.ScheduleErrors)
	}
	return nil
}

func indent(s, prefix string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += prefix + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

func acceleratedCluster(tmin, tmax core.Tick) detector.ClusterConfig {
	return detector.ClusterConfig{
		Protocol: detector.ProtocolBinary,
		Core:     core.Config{TMin: tmin, TMax: tmax},
	}
}

// overhead: Q1 — steady-state message rate vs tmax, against the plain
// baseline dimensioned for the same worst-case detection bound and the
// same loss tolerance.
func overhead(w io.Writer) error {
	fmt.Fprintln(w, "== Q1: steady-state overhead (messages/tick), fault-free, binary protocol")
	fmt.Fprintf(w, "%8s %8s %14s %22s %22s\n",
		"tmax", "tmin", "accelerated", "plain @same detect", "plain @same tolerance")
	tmin := core.Tick(2)
	for _, tmax := range []core.Tick{8, 16, 32, 64, 128} {
		res, err := scenario.MeasureOverhead(scenario.OverheadConfig{
			Cluster:  acceleratedCluster(tmin, tmax),
			Duration: sim.Time(tmax) * 400,
		})
		if err != nil {
			return err
		}
		// Plain baseline dimensioned to the same detection bound with a
		// single tolerated miss: period = bound/2.
		bound := acceleratedCluster(tmin, tmax).Core.CoordinatorDetectionBound()
		plainSameDetect := scenario.PlainOverhead(1, bound/2)
		// Plain baseline matching the accelerated loss tolerance
		// (log2(tmax/tmin) consecutive losses) at the same bound:
		// period = bound/(k+1).
		k := acceleratedCluster(tmin, tmax).Core.LossTolerance()
		plainSameTol := scenario.PlainOverhead(1, bound/core.Tick(k+1))
		fmt.Fprintf(w, "%8d %8d %14.4f %22.4f %22.4f\n",
			tmax, tmin, res.MessagesPerTick, plainSameDetect, plainSameTol)
	}
	fmt.Fprintln(w)
	return nil
}

// detection: Q2 — crash-to-detection latency distribution vs (tmin, tmax),
// checked against the corrected bound.
func detection(w io.Writer, trials int, seed int64) error {
	fmt.Fprintln(w, "== Q2: crash detection latency (ticks), binary protocol")
	fmt.Fprintf(w, "%8s %8s %10s %43s\n", "tmax", "tmin", "bound", "measured crash→suspicion delay")
	for _, cfg := range []struct{ tmin, tmax core.Tick }{
		{2, 8}, {2, 16}, {4, 16}, {8, 16}, {2, 32}, {8, 32},
	} {
		cluster := acceleratedCluster(cfg.tmin, cfg.tmax)
		cluster.Link = netem.LinkConfig{MaxDelay: sim.Time(cfg.tmin) / 2}
		res, err := scenario.MeasureDetection(scenario.DetectionConfig{
			Cluster:     cluster,
			CrashAt:     sim.Time(cfg.tmax) * 10,
			CrashJitter: sim.Time(cfg.tmax),
			Horizon:     sim.Time(cfg.tmax) * 22,
			Trials:      trials,
			Seed:        seed,
		})
		if err != nil {
			return err
		}
		if res.Missed > 0 {
			return fmt.Errorf("tmax=%d: %d crashes undetected", cfg.tmax, res.Missed)
		}
		fmt.Fprintf(w, "%8d %8d %10d %43s\n", cfg.tmax, cfg.tmin, res.Bound, res.Delays.Describe())
	}
	fmt.Fprintln(w)
	return nil
}

// topo: D — adaptive topology campaigns under correlated failure, with
// piecewise conformance checking. Mirrors the TestTopologyCampaign* /
// TestChaosSmoke gates in internal/scenario at CLI-selectable scale.
func topo(w, stderr io.Writer, trials int, seed int64) error {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	fmt.Fprintln(w, "== D: adaptive topology campaigns (envelope tmin=2, tmax 4..8), piecewise conformance")
	fmt.Fprintf(w, "%22s %9s %3s %8s %10s %10s %10s %10s %12s\n",
		"scenario", "variant", "n", "retunes", "saturated", "confirmed", "degraded", "dropped", "unconfirmed")
	for _, tc := range []struct {
		variant  models.Variant
		n        int
		scenario func(int) (scenario.TopologyScenario, error)
	}{
		{models.Static, 2, scenario.RackLossScenario},
		{models.Expanding, 1, scenario.WANDelayScenario},
		{models.Dynamic, 1, scenario.ChurnStormScenario},
	} {
		sc, err := tc.scenario(tc.n)
		if err != nil {
			return err
		}
		tmin, tmax := env.Point(0)
		res, err := scenario.RunCampaign(scenario.CampaignConfig{
			Cluster: detector.ClusterConfig{
				Adaptive: &core.AdaptiveOptions{
					Envelope: core.Envelope{
						TMinLo: core.Tick(env.TMinLo), TMinHi: core.Tick(env.TMinHi),
						TMaxLo: core.Tick(env.TMaxLo), TMaxHi: core.Tick(env.TMaxHi),
					},
					Window: 2, WidenAt: 0.25, TightenAt: 0.1, HoldRounds: 4,
				},
				AllowRejoin: tc.variant == models.Dynamic,
			},
			Schedule: sc.Schedule,
			Horizon:  1200,
			Trials:   trials,
			Seed:     seed,
			Conform: &conform.CampaignCheck{
				Model:    models.Config{TMin: tmin, TMax: tmax, Variant: tc.variant, N: tc.n, Fixed: true},
				Envelope: &env,
			},
		})
		if err != nil {
			return err
		}
		// Checked online, a trial reports its unconfirmed divergence as an
		// incident (R1–R3 violations are incidents too, and not failures).
		var diverged []*conform.Incident
		for _, inc := range res.Incidents {
			if inc.Kind == conform.IncidentDivergence {
				diverged = append(diverged, inc)
			}
		}
		fmt.Fprintf(w, "%22s %9s %3d %8d %10d %10d %10d %10d %12d\n",
			sc.Name, tc.variant, tc.n, res.Retunes, res.Saturations,
			res.ConfirmedDivergences, res.DegradedDivergences,
			res.Faults.DroppedLoss, len(diverged))
		if len(diverged) > 0 {
			if err := diverged[0].Render(stderr, "unconfirmed divergence"); err != nil {
				return err
			}
			return fmt.Errorf("%s: %d unconfirmed divergences", sc.Name, len(diverged))
		}
	}
	fmt.Fprintln(w)
	return nil
}

// reliability: Q3 — probability of a false (loss-induced) inactivation
// within a horizon, accelerated vs plain at matched message rate.
func reliability(w io.Writer, trials int, seed int64) error {
	fmt.Fprintln(w, "== Q3: false-detection probability within 4000 ticks vs per-message loss rate")
	fmt.Fprintln(w, "   accelerated binary (tmin=2, tmax=16) vs plain (period=16, 1 miss) at equal message rate")
	fmt.Fprintf(w, "%8s %14s %14s\n", "loss", "accelerated", "plain")
	horizon := sim.Time(4000)
	for _, loss := range []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5} {
		acc, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
			Cluster:  acceleratedCluster(2, 16),
			LossProb: loss,
			Horizon:  horizon,
			Trials:   trials,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		plain, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
			Cluster: detector.ClusterConfig{
				Protocol: detector.ProtocolPlain,
				Plain:    core.PlainConfig{Period: 16, MissLimit: 1},
				N:        1,
			},
			LossProb: loss,
			Horizon:  horizon,
			Trials:   trials,
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		pa, _ := acc.FalseDetection.Value()
		pp, _ := plain.FalseDetection.Value()
		fmt.Fprintf(w, "%8.2f %14.3f %14.3f\n", loss, pa, pp)
	}
	fmt.Fprintln(w)
	return nil
}
