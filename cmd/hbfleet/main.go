// Command hbfleet drives a fleet-scale heartbeat monitoring run: many
// thousands of independent accelerated-heartbeat clusters multiplexed
// into one process as struct-of-arrays rows over sharded calendar rings
// (internal/fleet), with per-epoch rollup up an aggregation tree.
//
//	hbfleet                              # default 10k-endpoint run, summary table
//	hbfleet -clusters 16384 -members 64  # a 1,048,576-endpoint fleet
//	hbfleet -alloc-check                 # fail unless steady state is 0 allocs/epoch
//
// The run is deterministic for a given seed and topology at any -workers
// value. -alloc-check and the missed-deadline assertion back the CI smoke
// step. The report goes to stdout; every "hbfleet:" line — a rejected
// configuration, a failed epoch, a violated invariant — goes to stderr with
// exit status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, drives the fleet and prints the report.
//
//lint:allow determinism the two timing lines measure physical elapsed time; the fleet itself runs on virtual ticks
func run(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("hbfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		clusters   = fs.Int("clusters", 157, "leaf heartbeat clusters")
		members    = fs.Int("members", 64, "monitored endpoints per cluster")
		shards     = fs.Int("shards", 64, "independent event loops (topology: changes results)")
		workers    = fs.Int("workers", 1, "goroutines driving shards (results identical at any value)")
		epochs     = fs.Int("epochs", 30, "rollup epochs to run after warmup")
		warmup     = fs.Int("warmup", 5, "untimed warmup epochs")
		tmin       = fs.Uint("tmin", 2, "protocol tmin, ticks")
		tmax       = fs.Uint("tmax", 16, "protocol tmax, ticks")
		loss       = fs.Float64("loss", 0, "independent per-message loss probability")
		killEvery  = fs.Int("kill-every", 64, "crash one endpoint per shard every this many ticks (0 = never)")
		seed       = fs.Int64("seed", 1, "seed for the per-shard RNG streams")
		allocCheck = fs.Bool("alloc-check", false, "fail unless a steady-state epoch is 0 allocs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"epochs", *epochs}, {"warmup", *warmup}, {"shards", *shards}, {"workers", *workers}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "hbfleet: -%s %d must not be negative\n", f.name, f.v)
			return 2
		}
	}

	cfg := fleet.Config{
		Clusters:    *clusters,
		ClusterSize: *members,
		Shards:      *shards,
		Workers:     *workers,
		Core:        core.Config{TMin: core.Tick(*tmin), TMax: core.Tick(*tmax)},
		LossProb:    *loss,
		KillEvery:   sim.Time(*killEvery),
		Seed:        *seed,
	}
	f, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "hbfleet:", err)
		return 1
	}
	// The fleet as New settled it: defaults filled, shards clamped.
	built := f.Config()
	fmt.Fprintf(w, "fleet: %d endpoints (%d clusters x %d), %d shards, %d workers\n",
		f.Endpoints(), built.Clusters, built.ClusterSize, built.Shards, built.Workers)

	if err := f.RunEpochs(*warmup); err != nil {
		fmt.Fprintln(stderr, "hbfleet:", err)
		return 1
	}
	before := f.Stats()
	start := time.Now()
	if err := f.RunEpochs(*epochs); err != nil {
		fmt.Fprintln(stderr, "hbfleet:", err)
		return 1
	}
	elapsed := time.Since(start)
	st := f.Stats()
	beatsPerSec := float64(st.Beats-before.Beats) / elapsed.Seconds()
	p50, p99, samples := f.DetectionLatency()

	fmt.Fprintf(w, "ran %d epochs (%d virtual ticks) in %v\n",
		*epochs, f.Now(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "throughput: %.0f beats/s sustained\n", beatsPerSec)
	fmt.Fprintf(w, "root: %d/%d alive, %d detections (%d kills, %d false suspects)\n",
		st.Root.Alive, st.Root.Total, st.Root.Detections, st.Kills, st.FalseSuspects)
	fmt.Fprintf(w, "detection latency: p50=%d p99=%d ticks over %d samples\n", p50, p99, samples)
	fmt.Fprintf(w, "health: %d missed deadlines, %d silent links, %d stale children, %d latency overflows\n",
		st.MissedDeadlines, st.SilentLinks, st.StaleChildren, st.LatencyOverflow)

	if st.MissedDeadlines != 0 || st.SilentLinks != 0 || st.StaleChildren != 0 {
		fmt.Fprintln(stderr, "hbfleet: FAIL: the run violated its health invariants")
		return 1
	}

	if *allocCheck {
		return steadyStateAllocs(func() error { return f.RunEpochs(1) }, w, stderr)
	}
	return 0
}

// steadyStateAllocs holds the per-beat hot path to the simulator's 0-alloc
// standard: it measures whole steady-state epochs on the already-warm
// fleet. An epoch that fails ends the check; testing.AllocsPerRun has no
// way to stop early, so the remaining calls do nothing.
func steadyStateAllocs(epoch func() error, w, stderr io.Writer) int {
	var err error
	allocsPerEpoch := int64(testing.AllocsPerRun(5, func() {
		if err == nil {
			err = epoch()
		}
	}))
	if err != nil {
		fmt.Fprintln(stderr, "hbfleet:", err)
		return 1
	}
	fmt.Fprintf(w, "steady state: %d allocs/epoch\n", allocsPerEpoch)
	if allocsPerEpoch != 0 {
		fmt.Fprintln(stderr, "hbfleet: FAIL: steady-state epoch allocates")
		return 1
	}
	return 0
}
