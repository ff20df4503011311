package ensemble

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// diffVariant is one protocol configuration pinned against the oracle.
type diffVariant struct {
	name     string
	protocol Protocol
	core     core.Config
	n        int
}

// diffVariants covers all six paper variants plus §6-fixed instances (the
// Fixed flag switches the engine onto the receive-priority hop path), the
// plain heartbeat (binary at tmin = tmax, with and without the fix), and a
// static row at n=16, whose ticks queue more events than one member's five
// slots hold.
func diffVariants(tmin, tmax core.Tick) []diffVariant {
	return []diffVariant{
		{"binary", ProtocolBinary, core.Config{TMin: tmin, TMax: tmax}, 1},
		{"revised", ProtocolBinary, core.Config{TMin: tmin, TMax: tmax, Revised: true}, 1},
		{"two-phase", ProtocolBinary, core.Config{TMin: tmin, TMax: tmax, TwoPhase: true}, 1},
		{"static", ProtocolStatic, core.Config{TMin: tmin, TMax: tmax}, 3},
		{"expanding", ProtocolExpanding, core.Config{TMin: tmin, TMax: tmax}, 2},
		{"dynamic", ProtocolDynamic, core.Config{TMin: tmin, TMax: tmax}, 2},
		{"binary-fixed", ProtocolBinary, core.Config{TMin: tmin, TMax: tmax, Fixed: true}, 1},
		{"static-fixed", ProtocolStatic, core.Config{TMin: tmin, TMax: tmax, Fixed: true}, 3},
		{"expanding-fixed", ProtocolExpanding, core.Config{TMin: tmin, TMax: tmax, Fixed: true}, 2},
		{"dynamic-fixed", ProtocolDynamic, core.Config{TMin: tmin, TMax: tmax, Fixed: true}, 2},
		{"static-16", ProtocolStatic, core.Config{TMin: tmin, TMax: tmax}, 16},
		{"plain", ProtocolBinary, core.Config{TMin: tmax, TMax: tmax}, 1},
		{"plain-fixed", ProtocolBinary, core.Config{TMin: tmax, TMax: tmax, Fixed: true}, 1},
	}
}

// checkDetection pins one detection campaign's per-trial verdicts —
// (suspected, suspicion_tick - crash_tick) in trial order, and the missed
// count — against scenario.MeasureDetection.
func checkDetection(t *testing.T, v diffVariant, link netem.LinkConfig, crashAt, jitter, horizon sim.Time, trials int) {
	t.Helper()
	oracle, err := scenario.MeasureDetection(scenario.DetectionConfig{
		Cluster: detector.ClusterConfig{
			Protocol: v.protocol, Core: v.core, N: v.n, Link: link,
		},
		CrashAt:     crashAt,
		CrashJitter: jitter,
		Victim:      1,
		Horizon:     horizon,
		Trials:      trials,
		Seed:        977,
	})
	if err != nil {
		t.Fatalf("%s: oracle: %v", v.name, err)
	}
	oracleDelays := oracle.Delays.Values() // insertion order: per detecting trial
	res, err := Run(Config{
		Protocol: v.protocol, Core: v.core, N: v.n, Link: link,
		CrashAt: crashAt, CrashJitter: jitter, Victim: 1,
		Horizon: horizon, Trials: trials, Seed: 977,
		Exact: true, Record: true, Block: 7, // odd block size: exercise reset reuse
	})
	if err != nil {
		t.Fatalf("%s: ensemble: %v", v.name, err)
	}
	if res.Missed != oracle.Missed {
		t.Errorf("%s link %+v: missed %d (ensemble) vs %d (oracle)",
			v.name, link, res.Missed, oracle.Missed)
	}
	var delays []float64
	for _, o := range res.Outcomes {
		if o.Suspected {
			delays = append(delays, float64(o.SuspectAt-o.CrashedAt))
		}
	}
	if len(delays) != len(oracleDelays) {
		t.Fatalf("%s link %+v: %d detections (ensemble) vs %d (oracle)",
			v.name, link, len(delays), len(oracleDelays))
	}
	for i := range delays {
		if delays[i] != oracleDelays[i] {
			t.Fatalf("%s link %+v: trial-order delay %d: %g (ensemble) vs %g (oracle)",
				v.name, link, i, delays[i], oracleDelays[i])
		}
	}
}

// TestEnsembleDifferentialDetection pins the ensemble's per-trial
// detection verdicts against scenario.MeasureDetection on the Q2 workload
// shape (delay jitter up to tmin/2, crash jitter up to tmax), with and
// without loss, for every variant.
func TestEnsembleDifferentialDetection(t *testing.T) {
	for _, link := range []netem.LinkConfig{
		{MaxDelay: 1},                 // Q2's jittered zero-loss shape (tmin=2)
		{},                            // degenerate zero-delay links
		{LossProb: 0.08, MaxDelay: 1}, // loss + jitter: missed beats, re-halving
		{LossProb: 0.25},              // heavy loss, zero delay: ties on the round tick
	} {
		for _, v := range diffVariants(2, 16) {
			tmax := sim.Time(v.core.TMax)
			checkDetection(t, v, link, tmax*10, tmax, tmax*22, 40)
		}
	}
}

// TestEnsembleDifferentialCrashTicks pins the crash rules of the tick
// kernel per trial: a crash loses same-tick ties, so on a round tick of
// zero-delay links the victim still answers that round's beat; and a
// crash past the horizon stretches the bound, so the events up to the
// crash tick run and a suspicion among them counts.
func TestEnsembleDifferentialCrashTicks(t *testing.T) {
	for _, v := range diffVariants(2, 16) {
		tmax := sim.Time(v.core.TMax)
		// Loss-free zero-delay rounds of the fixed-membership variants
		// fire on multiples of tmax; the crash lands on one.
		checkDetection(t, v, netem.LinkConfig{}, tmax*10, 0, tmax*22, 8)
		// Crash ticks fall in [10·tmax, 16·tmax), the horizon is
		// 10·tmax+1: almost every trial runs past it, and 20% loss
		// makes suspicions before the crash common.
		checkDetection(t, v, netem.LinkConfig{LossProb: 0.2}, tmax*10, tmax*6, tmax*10+1, 60)
	}
}

// TestEnsembleDifferentialReliability pins per-trial false-detection
// verdicts — (failed, first non-voluntary inactivation tick) in trial
// order — against scenario.MeasureReliability on the Q3 workload shape.
func TestEnsembleDifferentialReliability(t *testing.T) {
	const trials = 60
	for _, loss := range []float64{0.1, 0.3} {
		for _, v := range diffVariants(2, 16) {
			oracle, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
				Cluster: detector.ClusterConfig{
					Protocol: v.protocol, Core: v.core, N: v.n,
				},
				LossProb: loss,
				Horizon:  800,
				Trials:   trials,
				Seed:     431,
			})
			if err != nil {
				t.Fatalf("%s: oracle: %v", v.name, err)
			}
			oracleTTF := oracle.TimeToFalse.Values()
			res, err := Run(Config{
				Protocol: v.protocol, Core: v.core, N: v.n,
				Link:    netem.LinkConfig{LossProb: loss},
				Horizon: 800, Trials: trials, Seed: 431,
				Exact: true, Record: true, Block: 13,
			})
			if err != nil {
				t.Fatalf("%s: ensemble: %v", v.name, err)
			}
			if res.FalseTrials != oracle.FalseDetection.Successes {
				t.Errorf("%s loss %g: %d false trials (ensemble) vs %d (oracle)",
					v.name, loss, res.FalseTrials, oracle.FalseDetection.Successes)
			}
			var ttf []float64
			for _, o := range res.Outcomes {
				if o.False {
					ttf = append(ttf, float64(o.FalseAt))
				}
			}
			if len(ttf) != len(oracleTTF) {
				t.Fatalf("%s loss %g: %d failures (ensemble) vs %d (oracle)",
					v.name, loss, len(ttf), len(oracleTTF))
			}
			for i := range ttf {
				if ttf[i] != oracleTTF[i] {
					t.Fatalf("%s loss %g: trial-order ttf %d: %g (ensemble) vs %g (oracle)",
						v.name, loss, i, ttf[i], oracleTTF[i])
				}
			}
		}
	}
}

// TestEnsembleDifferentialOverhead pins the fault-free message count and
// the coordinator-breakdown flag against scenario.MeasureOverhead (Q1).
func TestEnsembleDifferentialOverhead(t *testing.T) {
	for _, tmax := range []core.Tick{8, 32} {
		for _, v := range diffVariants(2, tmax) {
			duration := tmax * 50
			oracle, err := scenario.MeasureOverhead(scenario.OverheadConfig{
				Cluster: detector.ClusterConfig{
					Protocol: v.protocol, Core: v.core, N: v.n, Seed: 5,
				},
				Duration: sim.Time(duration),
			})
			if err != nil {
				t.Fatalf("%s: oracle: %v", v.name, err)
			}
			res, err := Run(Config{
				Protocol: v.protocol, Core: v.core, N: v.n,
				Horizon: sim.Time(duration), Trials: 1, Seed: 5,
				Exact: true, Record: true,
			})
			if err != nil {
				t.Fatalf("%s: ensemble: %v", v.name, err)
			}
			if res.Sent != oracle.Sent {
				t.Errorf("%s tmax %d: sent %d (ensemble) vs %d (oracle)",
					v.name, tmax, res.Sent, oracle.Sent)
			}
			if (res.CoordInactivated > 0) != oracle.FalselyInactivated {
				t.Errorf("%s tmax %d: coordinator inactivation %v (ensemble) vs %v (oracle)",
					v.name, tmax, res.CoordInactivated > 0, oracle.FalselyInactivated)
			}
		}
	}
}
