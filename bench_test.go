// Package repro's root benchmark harness regenerates every table and
// figure of the reproduction (see DESIGN.md's experiment index):
//
//	go test -bench=. -benchmem                    # everything
//	go test -bench=BenchmarkTable1 -benchtime=1x  # one table
//
// Each benchmark validates the regenerated result against the analysis'
// expectation and fails on mismatch, so `-bench` doubles as the
// experiment suite.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// expectRow checks one protocol row against the analysis' verdicts.
func expectRow(b *testing.B, cells []models.Cell, variant models.Variant, want [5]string) {
	b.Helper()
	for i, tmin := range models.DefaultTMins() {
		if got := models.VerdictString(cells, variant, tmin); got != want[i] {
			b.Fatalf("%v tmin=%d: verdicts %q, want %q", variant, tmin, got, want[i])
		}
	}
}

// BenchmarkTable1BinaryFamily regenerates the binary, revised-binary and
// two-phase columns of Table 1 (R1/R2/R3 over tmin = 1,4,5,9,10, tmax=10).
func BenchmarkTable1BinaryFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := models.RunTable(models.TableSpec{
			Variants: []models.Variant{models.Binary, models.RevisedBinary, models.TwoPhase},
			TMins:    models.DefaultTMins(),
			TMax:     10,
			N:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
		expectRow(b, cells, models.Binary, [5]string{"FTT", "FTT", "FTT", "TTT", "TFF"})
		expectRow(b, cells, models.RevisedBinary, [5]string{"FTT", "FTT", "FTT", "TTT", "TFF"})
		// Two-phase is not a Table 1 column; under the inactivation rule
		// implemented here its R1 row diverges at tmin=9 (see DESIGN.md).
		expectRow(b, cells, models.TwoPhase, [5]string{"FTT", "FTT", "FTT", "FTT", "TFF"})
	}
}

// BenchmarkTable1Static regenerates the static column of Table 1 with two
// participants.
func BenchmarkTable1Static(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := models.RunTable(models.TableSpec{
			Variants: []models.Variant{models.Static},
			TMins:    models.DefaultTMins(),
			TMax:     10,
			N:        2,
		})
		if err != nil {
			b.Fatal(err)
		}
		expectRow(b, cells, models.Static, [5]string{"FTT", "FTT", "FTT", "TTT", "TFF"})
	}
}

// BenchmarkTable2 regenerates Table 2: the expanding and dynamic
// protocols (R1: F F F T T, R2: T T F F F, R3: T T T T F).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := models.RunTable(models.TableSpec{
			Variants: []models.Variant{models.Expanding, models.Dynamic},
			TMins:    models.DefaultTMins(),
			TMax:     10,
			N:        1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []models.Variant{models.Expanding, models.Dynamic} {
			expectRow(b, cells, v, [5]string{"FTT", "FTT", "FFT", "TFT", "TFF"})
		}
	}
}

// BenchmarkTableFixed regenerates the §6 result: the corrected protocols
// satisfy every requirement on every data set.
func BenchmarkTableFixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := models.RunTable(models.TableSpec{
			Variants: []models.Variant{
				models.Binary, models.RevisedBinary, models.TwoPhase,
				models.Expanding, models.Dynamic,
			},
			TMins: models.DefaultTMins(),
			TMax:  10,
			N:     1,
			Fixed: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if !c.Verdict.Satisfied {
				b.Fatalf("fixed %v tmin=%d %v: violated", c.Variant, c.TMin, c.Prop)
			}
		}
	}
}

// BenchmarkTableFixedStatic is the heavyweight cell block: the corrected
// static protocol with two participants (up to 625k quotient states per
// check; 4.35M on the unreduced network).
func BenchmarkTableFixedStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := models.RunTable(models.TableSpec{
			Variants: []models.Variant{models.Static},
			TMins:    models.DefaultTMins(),
			TMax:     10,
			N:        2,
			Fixed:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if !c.Verdict.Satisfied {
				b.Fatalf("fixed static tmin=%d %v: violated", c.TMin, c.Prop)
			}
		}
	}
}

// BenchmarkFig1LTS regenerates Figure 1: the transition system of the
// isolated binary p[0] with tmax=2, tmin=1, weak-trace reduced.
func BenchmarkFig1LTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := models.BuildIsolatedP0(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		l, err := mc.BuildLTS(net, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := l.WeakTraceReduce(mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// The figure's reduced system is small; pin the regenerated size.
		if r.NumStates != 12 {
			b.Fatalf("reduced p0 LTS has %d states, want 12", r.NumStates)
		}
	}
}

// BenchmarkFig2LTS regenerates Figure 2: the isolated binary p[1].
func BenchmarkFig2LTS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := models.BuildIsolatedP1(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		l, err := mc.BuildLTS(net, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		r, err := l.WeakTraceReduce(mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if r.NumStates != 8 {
			b.Fatalf("reduced p1 LTS has %d states, want 8", r.NumStates)
		}
	}
}

// benchFigure reproduces one counter-example figure.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		f, err := models.FindFigure(id)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Reproduce(mc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Trace finds the R1 counter-examples of Figure 10, both
// the stale-beat variant (a) and the plain-decay variant (b).
func BenchmarkFig10Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// (a): additionally require the stale-beat shape.
		fa, err := models.FindFigure("10a")
		if err != nil {
			b.Fatal(err)
		}
		m, err := models.Build(fa.Cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.VerifyGoal(m.StaleBeat, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reachable {
			b.Fatal("figure 10a not reproduced")
		}
		// (b).
		fb, err := models.FindFigure("10b")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fb.Reproduce(mc.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Trace finds the simultaneous beat/watchdog R2 race.
func BenchmarkFig11Trace(b *testing.B) { benchFigure(b, "11") }

// BenchmarkFig12Trace finds the simultaneous reply/timeout R3 race.
func BenchmarkFig12Trace(b *testing.B) { benchFigure(b, "12") }

// BenchmarkFig13Trace finds the late-join-acknowledgement R2 race.
func BenchmarkFig13Trace(b *testing.B) { benchFigure(b, "13") }

// BenchmarkOverheadSweep regenerates Q1: steady-state message rate vs
// tmax, which must track 2/tmax for the binary protocol (one exchange per
// round).
func BenchmarkOverheadSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tmax := range []core.Tick{8, 16, 32, 64} {
			res, err := scenario.MeasureOverhead(scenario.OverheadConfig{
				Cluster: detector.ClusterConfig{
					Protocol: detector.ProtocolBinary,
					Core:     core.Config{TMin: 2, TMax: tmax},
				},
				Duration: sim.Time(tmax) * 200,
			})
			if err != nil {
				b.Fatal(err)
			}
			want := 2.0 / float64(tmax)
			if res.MessagesPerTick < want*0.85 || res.MessagesPerTick > want*1.15 {
				b.Fatalf("tmax=%d: rate %v, want about %v", tmax, res.MessagesPerTick, want)
			}
		}
	}
}

// BenchmarkDetectionDelay regenerates Q2: crash-to-suspicion latency,
// always within the corrected bound.
func BenchmarkDetectionDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := scenario.MeasureDetection(scenario.DetectionConfig{
			Cluster: detector.ClusterConfig{
				Protocol: detector.ProtocolBinary,
				Core:     core.Config{TMin: 2, TMax: 16},
			},
			CrashAt: 160,
			Horizon: 400,
			Trials:  50,
			Seed:    int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Missed != 0 {
			b.Fatalf("%d crashes undetected", res.Missed)
		}
		maxDelay, err := res.Delays.Max()
		if err != nil {
			b.Fatal(err)
		}
		if maxDelay > float64(res.Bound) {
			b.Fatalf("max delay %v exceeds bound %d", maxDelay, res.Bound)
		}
	}
}

// BenchmarkReliabilitySweep regenerates Q3: false-detection probability
// under loss; the accelerated protocol must beat the plain baseline at
// matched message rate, and the curve must be monotone in the loss rate.
func BenchmarkReliabilitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var prev float64 = -1
		for _, loss := range []float64{0.05, 0.2, 0.4} {
			acc, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
				Cluster: detector.ClusterConfig{
					Protocol: detector.ProtocolBinary,
					Core:     core.Config{TMin: 2, TMax: 16},
				},
				LossProb: loss,
				Horizon:  3000,
				Trials:   60,
				Seed:     int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			plain, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
				// The plain baseline: the accelerated protocol at tmin = tmax.
				Cluster: detector.ClusterConfig{
					Protocol: detector.ProtocolBinary,
					Core:     core.Config{TMin: 16, TMax: 16},
				},
				LossProb: loss,
				Horizon:  3000,
				Trials:   60,
				Seed:     int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			pa, _ := acc.FalseDetection.Value()
			pp, _ := plain.FalseDetection.Value()
			if pa > pp {
				b.Fatalf("loss %v: accelerated %v worse than plain %v", loss, pa, pp)
			}
			if pa < prev {
				b.Fatalf("false-detection probability not monotone: %v after %v", pa, prev)
			}
			prev = pa
		}
	}
}

// BenchmarkShutdownGoal verifies the 1998 paper's headline liveness goal
// (network-wide shutdown within a bound of any relevant crash) on the
// small-constant models.
func BenchmarkShutdownGoal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, variant := range []models.Variant{models.Binary, models.Expanding, models.Dynamic} {
			cfg := models.Config{TMin: 2, TMax: 4, Variant: variant, N: 1}
			v, err := models.VerifyShutdown(cfg, cfg.ShutdownBound(), mc.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !v.Satisfied {
				b.Fatalf("%v: shutdown goal violated", variant)
			}
		}
	}
}

// BenchmarkAblationFixes decomposes the §6 repair: bounds fix R1,
// priority fixes the races, and neither alone fixes everything.
func BenchmarkAblationFixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Priority only: R2 repaired at the tmin=tmax race, R1 still broken.
		prio := models.Config{TMin: 10, TMax: 10, Variant: models.Binary, N: 1, FixPriority: true}
		if v, err := models.Verify(prio, models.R2, mc.Options{}); err != nil || !v.Satisfied {
			b.Fatalf("priority-only R2: %v %v", v.Satisfied, err)
		}
		prioR1 := models.Config{TMin: 1, TMax: 10, Variant: models.Binary, N: 1, FixPriority: true}
		if v, err := models.Verify(prioR1, models.R1, mc.Options{}); err != nil || v.Satisfied {
			b.Fatalf("priority-only R1 should stay violated: %v %v", v.Satisfied, err)
		}
		// Bounds only: R1 repaired, the race remains.
		bounds := models.Config{TMin: 10, TMax: 10, Variant: models.Binary, N: 1, FixBounds: true}
		if v, err := models.Verify(bounds, models.R2, mc.Options{}); err != nil || v.Satisfied {
			b.Fatalf("bounds-only R2 should stay violated: %v %v", v.Satisfied, err)
		}
		boundsR1 := models.Config{TMin: 1, TMax: 10, Variant: models.Binary, N: 1, FixBounds: true}
		if v, err := models.Verify(boundsR1, models.R1, mc.Options{}); err != nil || !v.Satisfied {
			b.Fatalf("bounds-only R1: %v %v", v.Satisfied, err)
		}
	}
}

// BenchmarkCheckerThroughput measures raw model-checker speed
// (states/second) on the binary model, the unit underlying every table.
func BenchmarkCheckerThroughput(b *testing.B) {
	b.ReportAllocs()
	states := 0
	for i := 0; i < b.N; i++ {
		m, err := models.Build(models.Config{TMin: 9, TMax: 10, Variant: models.Binary, N: 1})
		if err != nil {
			b.Fatal(err)
		}
		v, err := m.Verify(models.R1, mc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		states += v.Result.StatesExplored
	}
	b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
}

// BenchmarkSimulatorThroughput measures discrete-event engine speed
// (events/second) on a fault-free binary cluster.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	events := uint64(0)
	for i := 0; i < b.N; i++ {
		c, err := detector.NewCluster(detector.ClusterConfig{
			Protocol: detector.ProtocolBinary,
			Core:     core.Config{TMin: 2, TMax: 16},
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Start(); err != nil {
			b.Fatal(err)
		}
		c.Sim.RunUntil(100_000)
		events += c.Sim.EventsExecuted()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
