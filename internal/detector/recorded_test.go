package detector

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

// clusterPin is what TestClusterRecordedDigests records of one cluster run.
type clusterPin struct {
	sent, delivered, lost uint64
	executed              uint64
	// suspectAt is the coordinator's first suspicion of the crashed
	// participant at or after the crash; -1 when there was none.
	suspectAt core.Tick
}

func (p clusterPin) goString() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d}", p.sent, p.delivered, p.lost, p.executed, p.suspectAt)
}

// TestClusterRecordedDigests pins the plain simulated beat path — detector
// dispatch, the core machines, netem's loss and delay draws and the sim
// kernel, with nothing on top — on the four cluster shapes of the
// sim_cluster benchmark, at a 20k-tick horizon: the highest participant
// crashes 160 ticks before the horizon, and the row records the network's
// counters, the events the simulator executed and the coordinator's first
// suspicion after the crash. The values were recorded before the beat path
// lost its binary search, its per-step closure, its interface draws and its
// payload copy, so they hold every later change to that path to the same
// draws and the same event order.
func TestClusterRecordedDigests(t *testing.T) {
	const horizon = sim.Time(20_000)
	const crashAt = core.Tick(horizon - 160)
	shapes := []struct {
		name  string
		proto Protocol
		n     int
	}{
		{"binary", ProtocolBinary, 1},
		{"static", ProtocolStatic, 8},
		{"expanding", ProtocolExpanding, 8},
		{"dynamic", ProtocolDynamic, 8},
	}
	seeds := []int64{1, 7, 42}
	want := map[string]clusterPin{
		"binary/1":     {2493, 2476, 17, 3729, 19874},
		"binary/7":     {2491, 2472, 19, 3726, 19878},
		"binary/42":    {2486, 2478, 8, 3726, 19870},
		"static/1":     {20582, 20484, 98, 21782, 19878},
		"static/7":     {20642, 20540, 102, 21842, 19882},
		"static/42":    {20712, 20599, 113, 21905, 19878},
		"expanding/1":  {20662, 20563, 99, 21925, 19878},
		"expanding/7":  {20721, 20617, 104, 21983, 19882},
		"expanding/42": {20760, 20647, 113, 22016, 19870},
		"dynamic/1":    {20662, 20563, 99, 21925, 19878},
		"dynamic/7":    {20721, 20617, 104, 21983, 19882},
		"dynamic/42":   {20760, 20647, 113, 22016, 19870},
	}
	for _, sh := range shapes {
		for _, seed := range seeds {
			c := newCluster(t, ClusterConfig{
				Protocol: sh.proto,
				Core:     core.Config{TMin: 2, TMax: 16},
				N:        sh.n,
				Link:     netem.LinkConfig{LossProb: 0.005, MaxDelay: 1},
				Seed:     seed,
			})
			c.Sim.RunUntil(sim.Time(crashAt))
			victim := core.ProcID(len(c.Participants))
			c.Participants[victim].Crash()
			c.Sim.RunUntil(horizon)
			st := c.Net.Stats().Total
			got := clusterPin{sent: st.Sent, delivered: st.Delivered, lost: st.Lost,
				executed: c.Sim.EventsExecuted(), suspectAt: -1}
			for _, e := range c.Events {
				if e.Kind == EventSuspect && e.Node == netem.NodeID(core.CoordinatorID) &&
					e.Proc == victim && e.Time >= crashAt {
					got.suspectAt = e.Time
					break
				}
			}
			key := fmt.Sprintf("%s/%d", sh.name, seed)
			w, ok := want[key]
			if !ok || got != w {
				t.Errorf("%q: %s,", key, got.goString())
			}
		}
	}
}

// BenchmarkClusterBeatPath runs the four cluster shapes of
// TestClusterRecordedDigests to a 200k-tick horizon, with no crash: the
// plain simulated beat path, for CPU profiles of it
// (go test -run '^$' -bench ClusterBeatPath -cpuprofile cpu.prof).
func BenchmarkClusterBeatPath(b *testing.B) {
	shapes := []struct {
		proto Protocol
		n     int
	}{{ProtocolBinary, 1}, {ProtocolStatic, 8}, {ProtocolExpanding, 8}, {ProtocolDynamic, 8}}
	for i := 0; i < b.N; i++ {
		for _, sh := range shapes {
			c, err := NewCluster(ClusterConfig{
				Protocol: sh.proto,
				Core:     core.Config{TMin: 2, TMax: 16},
				N:        sh.n,
				Link:     netem.LinkConfig{LossProb: 0.005, MaxDelay: 1},
				Seed:     int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Start(); err != nil {
				b.Fatal(err)
			}
			c.Sim.RunUntil(200_000)
		}
	}
}
