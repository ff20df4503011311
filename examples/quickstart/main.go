// Quickstart: run the binary accelerated heartbeat protocol between p[0]
// and p[1] on the discrete-event simulator, crash p[1], and watch p[0]
// accelerate its rounds and detect the failure.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/detector"
)

func main() { os.Exit(run(os.Stdout)) }

// run narrates the run to w and returns the exit status.
func run(w io.Writer) int {
	cluster, err := detector.NewCluster(detector.ClusterConfig{
		Protocol: detector.ProtocolBinary,
		// tmin=2, tmax=16: one heartbeat exchange per 16 ticks when all
		// is well, with acceleration 16 → 8 → 4 → 2 on silence.
		Core: core.Config{TMin: 2, TMax: 16},
		Seed: 42,
	})
	if err == nil {
		err = cluster.Start()
	}
	if err != nil {
		fmt.Fprintln(w, "quickstart:", err)
		return 1
	}

	// Let the protocol idle in steady state for a while.
	cluster.Sim.RunUntil(200)
	fmt.Fprintf(w, "t=%-4d steady state: p[0] %v, p[1] %v, %d beats on the wire\n",
		cluster.Sim.Now(), cluster.Coordinator.Status(),
		cluster.Participants[1].Status(), cluster.Net.Stats().Total.Sent)

	// Crash p[1] and let the protocol notice.
	cluster.Participants[1].Crash()
	fmt.Fprintf(w, "t=%-4d p[1] crashes\n", cluster.Sim.Now())
	cluster.Sim.RunUntil(400)

	for _, e := range cluster.Events {
		switch e.Kind {
		case detector.EventSuspect:
			fmt.Fprintf(w, "t=%-4d p[0] suspects p[%d] (waiting time decayed below tmin)\n", e.Time, e.Proc)
		case detector.EventInactivated:
			kind := "non-voluntarily"
			if e.Voluntary {
				kind = "voluntarily (crash)"
			}
			fmt.Fprintf(w, "t=%-4d node %d inactivated %s\n", e.Time, e.Node, kind)
		}
	}
	fmt.Fprintf(w, "t=%-4d final: p[0] %v, p[1] %v\n",
		cluster.Sim.Now(), cluster.Coordinator.Status(), cluster.Participants[1].Status())

	cfg := core.Config{TMin: 2, TMax: 16}
	fmt.Fprintf(w, "corrected worst-case detection bound: %d ticks (3·tmax − tmin)\n",
		cfg.CoordinatorDetectionBound())
	return 0
}
