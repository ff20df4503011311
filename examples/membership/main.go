// Membership: the dynamic accelerated heartbeat protocol under churn.
// Participants join by soliciting p[0] with beats every tmin, leave
// gracefully by flipping the beat parameter to false, and one finally
// crashes — showing the protocol's central distinction: a leave disturbs
// nobody, a crash (by design) winds down the whole network.
//
//	go run ./examples/membership
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/netem"
)

func main() { os.Exit(run(os.Stdout)) }

// run narrates the run to w and returns the exit status.
func run(w io.Writer) int {
	cluster, err := detector.NewCluster(detector.ClusterConfig{
		Protocol: detector.ProtocolDynamic,
		Core:     core.Config{TMin: 2, TMax: 16},
		N:        3,
		Link:     netem.LinkConfig{MaxDelay: 1},
		Seed:     99,
	})
	if err == nil {
		err = cluster.Start()
	}
	if err != nil {
		fmt.Fprintln(w, "membership:", err)
		return 1
	}

	// Everyone joins.
	cluster.Sim.RunUntil(100)
	printNew(w, cluster, 0)
	fmt.Fprintf(w, "t=%-4d members joined: p[1], p[2], p[3] all %v\n",
		cluster.Sim.Now(), cluster.Participants[1].Status())

	// p[2] leaves gracefully.
	if err := cluster.Participants[2].Leave(); err != nil {
		fmt.Fprintln(w, "membership: leave:", err)
		return 1
	}
	fmt.Fprintf(w, "t=%-4d p[2] requests to leave\n", cluster.Sim.Now())
	mark := len(cluster.Events)
	cluster.Sim.RunUntil(300)
	printNew(w, cluster, mark)
	fmt.Fprintf(w, "t=%-4d after the leave: p[1] %v, p[2] %v, p[3] %v, p[0] %v (undisturbed)\n",
		cluster.Sim.Now(),
		cluster.Participants[1].Status(), cluster.Participants[2].Status(),
		cluster.Participants[3].Status(), cluster.Coordinator.Status())

	// p[3] crashes — this one takes the network down.
	mark = len(cluster.Events)
	cluster.Participants[3].Crash()
	fmt.Fprintf(w, "t=%-4d p[3] crashes\n", cluster.Sim.Now())
	cluster.Sim.RunUntil(700)
	printNew(w, cluster, mark)
	fmt.Fprintf(w, "t=%-4d final: p[0] %v, p[1] %v, p[2] %v (left earlier, unaffected)\n",
		cluster.Sim.Now(), cluster.Coordinator.Status(),
		cluster.Participants[1].Status(), cluster.Participants[2].Status())
	return 0
}

// printNew prints events recorded at or after index from.
func printNew(w io.Writer, cluster *detector.Cluster, from int) {
	for _, e := range cluster.Events[from:] {
		switch e.Kind {
		case detector.EventJoined:
			fmt.Fprintf(w, "t=%-4d p[%d] joined the protocol\n", e.Time, e.Node)
		case detector.EventLeft:
			fmt.Fprintf(w, "t=%-4d p[%d] left the protocol (acknowledged by p[0])\n", e.Time, e.Node)
		case detector.EventSuspect:
			fmt.Fprintf(w, "t=%-4d p[0] suspects p[%d]\n", e.Time, e.Proc)
		case detector.EventInactivated:
			if e.Voluntary {
				fmt.Fprintf(w, "t=%-4d node %d crashed\n", e.Time, e.Node)
			} else {
				fmt.Fprintf(w, "t=%-4d node %d wound down\n", e.Time, e.Node)
			}
		}
	}
}
