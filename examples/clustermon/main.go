// Clustermon: monitor workers with the accelerated heartbeat protocol.
//
// The default mode runs the deployment shape the 1998 paper motivates —
// one coordinator exchanging beats with five workers over a lossy,
// delaying network; the run injects message loss throughout, then a
// worker crash, then shows the protocol's reaction: the crash is detected
// and, by design, the whole network winds down (heartbeat protocols
// synchronise shutdown, they do not mask failures).
//
// -fleet scales the same protocol up three orders of magnitude: hundreds
// of independent clusters multiplexed into one process as rows over
// sharded calendar rings (internal/fleet), with per-epoch liveness rollup
// up an aggregation tree instead of per-node event logs.
//
//	go run ./examples/clustermon
//	go run ./examples/clustermon -fleet
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/fleet"
	"repro/internal/netem"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("clustermon", flag.ContinueOnError)
	fs.SetOutput(w)
	fleetMode := fs.Bool("fleet", false, "monitor a whole fleet of clusters with rollup output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	if *fleetMode {
		err = runFleet(w)
	} else {
		err = runCluster(w)
	}
	if err != nil {
		fmt.Fprintln(w, "clustermon:", err)
		return 1
	}
	return 0
}

func runCluster(w io.Writer) error {
	const workers = 5
	// Original (1998) bounds: the worker watchdog of 3·tmax − tmin
	// absorbs one lost beat with slack. The §6.2 tightened 2·tmax bound
	// detects faster but tolerates barely a single loss — R2 only
	// promises no false inactivation when no message is lost at all —
	// so for a lossy deployment the looser bound is the right choice.
	cfg := core.Config{TMin: 4, TMax: 32}
	cluster, err := detector.NewCluster(detector.ClusterConfig{
		Protocol: detector.ProtocolStatic,
		Core:     cfg,
		N:        workers,
		Link:     netem.LinkConfig{LossProb: 0.01}, // 1% loss per message
		Seed:     7,
	})
	if err != nil {
		return fmt.Errorf("building cluster: %w", err)
	}
	if err := cluster.Start(); err != nil {
		return fmt.Errorf("starting cluster: %w", err)
	}

	// A long steady-state phase: 1% loss is absorbed by acceleration
	// (a false detection needs log2(32/4) = 3 consecutive losses on the
	// same worker's exchange).
	cluster.Sim.RunUntil(5000)
	st := cluster.Net.Stats()
	fmt.Fprintf(w, "t=%-5d steady state: %d beats sent, %d lost, all %d workers %v\n",
		cluster.Sim.Now(), st.Total.Sent, st.Total.Lost, workers,
		cluster.Participants[1].Status())
	if len(cluster.Events) != 0 {
		return fmt.Errorf("unexpected events during steady state: %v", cluster.Events)
	}

	// Worker 3 crashes.
	cluster.Participants[3].Crash()
	fmt.Fprintf(w, "t=%-5d worker 3 crashes\n", cluster.Sim.Now())
	cluster.Sim.RunUntil(6000)

	for _, e := range cluster.Events {
		switch e.Kind {
		case detector.EventSuspect:
			fmt.Fprintf(w, "t=%-5d p[0] suspects worker %d\n", e.Time, e.Proc)
		case detector.EventInactivated:
			if e.Voluntary {
				fmt.Fprintf(w, "t=%-5d node %d crashed\n", e.Time, e.Node)
			} else {
				fmt.Fprintf(w, "t=%-5d node %d wound down (non-voluntary)\n", e.Time, e.Node)
			}
		}
	}

	down := 0
	for _, n := range cluster.Participants {
		if n.Status() != core.StatusActive {
			down++
		}
	}
	fmt.Fprintf(w, "t=%-5d final: coordinator %v, %d/%d workers inactive — network-wide shutdown complete\n",
		cluster.Sim.Now(), cluster.Coordinator.Status(), down, workers)
	fmt.Fprintf(w, "detection bound was %d ticks after the first missed exchange (3·tmax − tmin)\n",
		cfg.CoordinatorDetectionBound())
	return nil
}

// runFleet monitors 256 independent 16-member clusters at once. At this
// scale the interesting output is not per-node events but the rollup: a
// per-epoch fleet-wide summary aggregated leaf → subtree → root, with a
// fault injector steadily crashing endpoints so detections accumulate.
func runFleet(w io.Writer) error {
	cfg := fleet.Config{
		Clusters:    256,
		ClusterSize: 16,
		Shards:      16,
		Core:        core.Config{TMin: 2, TMax: 16},
		KillEvery:   48, // one crash per shard per 48 ticks
		AggFanout:   32,
		Seed:        7,
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return fmt.Errorf("building fleet: %w", err)
	}
	fmt.Fprintf(w, "fleet: %d endpoints in %d clusters, %d shards, rollup fanout %d\n",
		f.Endpoints(), cfg.Clusters, cfg.Shards, cfg.AggFanout)
	for epoch := 1; epoch <= 8; epoch++ {
		if err := f.RunEpochs(1); err != nil {
			return err
		}
		root := f.Root()
		fmt.Fprintf(w, "epoch %-2d t=%-4d root: %4d/%4d alive, %3d detections\n",
			epoch, f.Now(), root.Alive, root.Total, root.Detections)
	}
	st := f.Stats()
	p50, p99, samples := f.DetectionLatency()
	fmt.Fprintf(w, "injected %d crashes; %d detected so far, %d false suspicions\n",
		st.Kills, st.Detections, st.FalseSuspects)
	fmt.Fprintf(w, "detection latency: p50=%d p99=%d ticks over %d detections (bound %d)\n",
		p50, p99, samples, cfg.Core.CoordinatorDetectionBound())
	return nil
}
