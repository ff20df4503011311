package ensemble

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/scenario"
)

// BenchmarkEnsembleThroughput measures trials/sec on the Q3
// false-detection workload (binary {2,16}, 10% loss, horizon 4000) at
// workers=1 — the per-core number the ≥10x acceptance criterion is
// stated against. Compare with BenchmarkScenarioBaseline below.
func BenchmarkEnsembleThroughput(b *testing.B) {
	const trials = 2048
	cfg := q3Config(trials, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkEnsembleGeneric measures the generic tick kernel on the same
// Q3 shape with static membership at n=3 — the path every multi-member
// variant and every Fixed variant takes. BenchmarkEnsembleThroughput
// only reaches the binary path.
func BenchmarkEnsembleGeneric(b *testing.B) {
	const trials = 512
	cfg := q3Config(trials, 1)
	cfg.Protocol, cfg.N = ProtocolStatic, 3
	b.ReportAllocs()
	b.ResetTimer()
	var rounds uint64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.StopTimer()
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}

// BenchmarkScenarioBaseline runs the identical workload through the
// per-trial simulator path (scenario.MeasureReliability) — the oracle
// the ensemble is pinned against and the baseline for its speedup.
func BenchmarkScenarioBaseline(b *testing.B) {
	const trials = 64
	cfg := q3Config(trials, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
			Cluster: detector.ClusterConfig{
				Protocol: cfg.Protocol, Core: cfg.Core, N: cfg.N,
			},
			LossProb: cfg.Link.LossProb,
			Horizon:  cfg.Horizon,
			Trials:   trials,
			Seed:     cfg.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/sec")
}

// BenchmarkEnsembleSweep runs the bench's mc_sweep pass — the Q2 and Q3
// sweeps of Variants(3) at its six (tmin, tmax) points and seven loss
// rates — at 200 trials a point, on one worker: the shape whose CPU profile
// EXPERIMENTS.md reads.
func BenchmarkEnsembleSweep(b *testing.B) {
	times := [][2]core.Tick{{2, 8}, {2, 16}, {4, 16}, {8, 16}, {2, 32}, {8, 32}}
	losses := []float64{.01, .02, .05, .1, .2, .3, .5}
	for i := 0; i < b.N; i++ {
		if _, err := SweepDetection(Variants(3), times, 200, int64(i), 1); err != nil {
			b.Fatal(err)
		}
		if _, err := SweepReliability(Variants(3), 2, 16, losses, 200, int64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}
