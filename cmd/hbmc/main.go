// Command hbmc regenerates the paper's Q1/Q2/Q3 surfaces with the
// vectorized Monte-Carlo ensemble engine (internal/ensemble): every
// variant of the protocol family at ensemble trial counts, with 95%
// confidence intervals from the streaming accumulators.
//
//	hbmc                         # all three sweeps at 100k trials/point
//	hbmc -q3 -trials 250000      # just the reliability surface, denser
//	hbmc -baseline               # also time the per-trial simulator path
//
// Results are deterministic for a given seed at any -workers value. The
// tables go to stdout; flag errors and every "hbmc:" diagnostic go to
// stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/ensemble"
	"repro/internal/netem"
	"repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Canonical sweep parameters, matching cmd/hbsim's protocols so the
// ensemble tables are directly comparable with the per-trial ones.
var (
	q1TMaxes = []core.Tick{8, 16, 32, 64, 128}
	q2Times  = [][2]core.Tick{{2, 8}, {2, 16}, {4, 16}, {8, 16}, {2, 32}, {8, 32}}
	q3Losses = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}
	q1TMin   = core.Tick(2)
	q3TMin   = core.Tick(2)
	q3TMax   = core.Tick(16)
)

// run parses args, prints the requested sweeps and returns the exit
// status.
//
//lint:allow determinism the closing ensemble line reports physical trials/s; every table above it is a function of the flags
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbmc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		q1       = fs.Bool("q1", false, "Q1: steady-state overhead sweep")
		q2       = fs.Bool("q2", false, "Q2: detection-latency sweep")
		q3       = fs.Bool("q3", false, "Q3: false-detection reliability sweep")
		trials   = fs.Int("trials", 100000, "Monte-Carlo trials per sweep point")
		n        = fs.Int("n", 3, "members for the multi-process variants")
		workers  = fs.Int("workers", 1, "trial-block workers (results identical at any value)")
		seed     = fs.Int64("seed", 7, "campaign base seed")
		baseline = fs.Bool("baseline", false, "also time the per-trial simulator on the Q3 workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*q1 && !*q2 && !*q3 {
		*q1, *q2, *q3 = true, true, true
	}
	variants := ensemble.Variants(*n)

	totalTrials := 0
	points := 0
	start := time.Now()

	if *q1 {
		pts, err := ensemble.SweepOverhead(variants, q1TMin, q1TMaxes)
		if err != nil {
			fmt.Fprintln(stderr, "hbmc:", err)
			return 1
		}
		printOverhead(w, variants, pts)
		totalTrials += len(pts)
		points += len(pts)
	}
	if *q2 {
		pts, err := ensemble.SweepDetection(variants, q2Times, *trials, *seed, *workers)
		if err != nil {
			fmt.Fprintln(stderr, "hbmc:", err)
			return 1
		}
		printDetection(w, pts)
		totalTrials += len(pts) * *trials
		points += len(pts)
	}
	if *q3 {
		pts, err := ensemble.SweepReliability(variants, q3TMin, q3TMax, q3Losses, *trials, *seed, *workers)
		if err != nil {
			fmt.Fprintln(stderr, "hbmc:", err)
			return 1
		}
		printReliability(w, pts)
		totalTrials += len(pts) * *trials
		points += len(pts)
	}
	elapsed := time.Since(start)
	trialsPerSec := float64(totalTrials) / elapsed.Seconds()
	fmt.Fprintf(w, "ensemble: %d points, %d trials in %v (%.0f trials/s, %d workers, %d cpus)\n",
		points, totalTrials, elapsed.Round(time.Millisecond), trialsPerSec, *workers, runtime.NumCPU())

	if *baseline {
		measureBaseline(w, stderr, *seed)
	}
	return 0
}

// q3Workload is the acceptance workload the ensemble/simulator speedup is
// stated on: the Q3 binary false-detection shape.
func q3Workload(trials int, seed int64) ensemble.Config {
	return ensemble.Config{
		Protocol: ensemble.ProtocolBinary,
		Core:     core.Config{TMin: q3TMin, TMax: q3TMax},
		N:        1,
		Link:     netem.LinkConfig{LossProb: 0.1},
		Horizon:  4000,
		Trials:   trials,
		Seed:     seed,
	}
}

// measureBaseline times the per-trial simulator (scenario path) and the
// ensemble on the identical Q3 workload at workers=1 and reports both
// rates plus the per-core speedup.
//
//lint:allow determinism the baseline is a physical throughput measurement; both paths it times are seeded
func measureBaseline(w, stderr io.Writer, seed int64) {
	const ensTrials, simTrials = 8192, 192
	cfg := q3Workload(ensTrials, seed)

	start := time.Now()
	if _, err := ensemble.Run(cfg); err != nil {
		fmt.Fprintln(stderr, "hbmc: baseline ensemble:", err)
		return
	}
	ensRate := float64(ensTrials) / time.Since(start).Seconds()

	start = time.Now()
	_, err := scenario.MeasureReliability(scenario.ReliabilityConfig{
		Cluster: detector.ClusterConfig{
			Protocol: cfg.Protocol, Core: cfg.Core, N: cfg.N,
		},
		LossProb: cfg.Link.LossProb,
		Horizon:  cfg.Horizon,
		Trials:   simTrials,
		Seed:     seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hbmc: baseline simulator:", err)
		return
	}
	baseRate := float64(simTrials) / time.Since(start).Seconds()
	fmt.Fprintf(w, "q3 workload, 1 worker: ensemble %.0f trials/s, simulator %.0f trials/s, speedup %.1fx\n",
		ensRate, baseRate, ensRate/baseRate)
}

func printOverhead(w io.Writer, variants []ensemble.Variant, pts []ensemble.OverheadPoint) {
	fmt.Fprintln(w, "== Q1: steady-state overhead (messages/tick), fault-free, all variants")
	fmt.Fprintf(w, "%8s %8s", "tmax", "tmin")
	for _, v := range variants {
		fmt.Fprintf(w, " %10s", v.Name)
	}
	fmt.Fprintf(w, " %10s %10s\n", "plain-det", "plain-tol")
	for ti, tmax := range q1TMaxes {
		fmt.Fprintf(w, "%8d %8d", tmax, q1TMin)
		for vi := range variants {
			p := pts[vi*len(q1TMaxes)+ti]
			fmt.Fprintf(w, " %10.4f", p.MsgsPerTick)
		}
		// Plain baselines dimensioned for the binary variant's detection
		// bound: one tolerated miss, and the same halving loss tolerance.
		cc := core.Config{TMin: q1TMin, TMax: tmax}
		bound := cc.CoordinatorDetectionBound()
		k := cc.LossTolerance()
		fmt.Fprintf(w, " %10.4f %10.4f\n",
			scenario.PlainOverhead(1, bound/2),
			scenario.PlainOverhead(1, bound/core.Tick(k+1)))
	}
	fmt.Fprintln(w)
}

func printDetection(w io.Writer, pts []ensemble.DetectionPoint) {
	fmt.Fprintln(w, "== Q2: crash detection latency (ticks), all variants")
	fmt.Fprintf(w, "%12s %5s %5s %6s %16s %6s %6s %6s %6s %7s\n",
		"variant", "tmin", "tmax", "bound", "mean ± 95% CI", "p50", "p99", "max", "missed", "trials")
	var coarse float64
	for _, p := range pts {
		fmt.Fprintf(w, "%12s %5d %5d %6d %9.2f ± %4.2f %6.0f %6.0f %6.0f %6d %7d\n",
			p.Variant, p.TMin, p.TMax, p.Bound, p.MeanDelay, p.CI95, p.P50, p.P99, p.Max, p.Missed, p.Trials)
		if p.QuantRes > coarse {
			coarse = p.QuantRes
		}
	}
	if coarse > 1 {
		fmt.Fprintf(w, "(coarsened sketch: p50/p99 are bucket lower edges, up to %.3g ticks low)\n", coarse)
	}
	fmt.Fprintln(w)
}

func printReliability(w io.Writer, pts []ensemble.ReliabilityPoint) {
	fmt.Fprintln(w, "== Q3: false-detection probability vs loss, all variants")
	fmt.Fprintf(w, "%12s %6s %10s %21s %18s %7s\n",
		"variant", "loss", "p(false)", "Wilson 95%", "mean TTF ± CI", "trials")
	for _, p := range pts {
		fmt.Fprintf(w, "%12s %6.2f %10.5f [%8.5f, %8.5f] %10.1f ± %5.1f %7d\n",
			p.Variant, p.Loss, p.PFalse, p.WilsonLo, p.WilsonHi, p.MeanTTF, p.TTFCI95, p.Trials)
	}
	fmt.Fprintln(w)
}
