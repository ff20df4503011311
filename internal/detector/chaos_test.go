package detector

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/sim"
)

// TestPropertyNoFalseDetectionWithoutFaults: with lossless links and no
// crash injection, no protocol variant ever produces a liveness event,
// across random timing constants and run lengths.
func TestPropertyNoFalseDetectionWithoutFaults(t *testing.T) {
	f := func(seed int64, a, b uint8, protoRaw uint8, nRaw uint8) bool {
		tmin := core.Tick(a%8) + 1
		tmax := tmin * (core.Tick(b%4) + 2) // tmax >= 2*tmin avoids the tmin==tmax race
		protos := []Protocol{ProtocolBinary, ProtocolStatic, ProtocolExpanding, ProtocolDynamic}
		cfg := ClusterConfig{
			Protocol: protos[int(protoRaw)%len(protos)],
			Core:     core.Config{TMin: tmin, TMax: tmax},
			N:        int(nRaw%3) + 1,
			Link:     netem.LinkConfig{MaxDelay: sim.Time(tmin) / 2},
			Seed:     seed,
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		c.Sim.RunUntil(sim.Time(tmax) * 60)
		for _, e := range c.Events {
			if e.Kind == EventInactivated || e.Kind == EventSuspect {
				t.Logf("cfg %+v produced %+v", cfg, e)
				return false
			}
		}
		return c.Coordinator.Status() == core.StatusActive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCrashAlwaysDetectedWithinBound: a single participant crash
// at a random time — injected through a fault schedule — is always
// detected within the corrected bound plus one round-trip, for random
// constants, and the whole network then winds down.
func TestPropertyCrashAlwaysDetectedWithinBound(t *testing.T) {
	f := func(seed int64, a, b uint8, crashRaw uint16) bool {
		tmin := core.Tick(a%8) + 1
		tmax := tmin * (core.Tick(b%4) + 2)
		crashAt := sim.Time(crashRaw%2000) + 1
		cfg := ClusterConfig{
			Protocol: ProtocolStatic,
			Core:     core.Config{TMin: tmin, TMax: tmax},
			N:        2,
			Link:     netem.LinkConfig{MaxDelay: sim.Time(tmin) / 2},
			Seed:     seed,
			Faults: &faults.Schedule{Events: []faults.Event{
				{At: crashAt, Kind: faults.KindCrash, Node: 1},
			}},
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		horizon := crashAt + sim.Time(cfg.Core.CoordinatorDetectionBound()+cfg.Core.TMin)
		c.Sim.RunUntil(horizon)
		ev, ok := c.FirstEvent(0, EventSuspect)
		if !ok || ev.Proc != 1 {
			t.Logf("cfg %+v crash@%d: no suspicion (events %v)", cfg, crashAt, c.Events)
			return false
		}
		// The rest of the network follows within the responder bound.
		c.Sim.RunUntil(horizon + sim.Time(cfg.Core.ResponderBound()+cfg.Core.TMin))
		if !allInactive(c) {
			t.Logf("cfg %+v: network still partially active after shutdown window", cfg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCoordinatorCrashWindsDownEveryone: p[0]'s crash at a random
// time — injected through a fault schedule — inactivates every responder
// within its watchdog bound plus an in-flight allowance.
func TestPropertyCoordinatorCrashWindsDownEveryone(t *testing.T) {
	f := func(seed int64, a, b uint8, crashRaw uint16, fixed bool) bool {
		tmin := core.Tick(a%8) + 1
		tmax := tmin * (core.Tick(b%4) + 2)
		crashAt := sim.Time(crashRaw%2000) + 1
		cfg := ClusterConfig{
			Protocol: ProtocolStatic,
			Core:     core.Config{TMin: tmin, TMax: tmax, Fixed: fixed},
			N:        3,
			Link:     netem.LinkConfig{MaxDelay: sim.Time(tmin) / 2},
			Seed:     seed,
			Faults: &faults.Schedule{Events: []faults.Event{
				{At: crashAt, Kind: faults.KindCrash, Node: 0},
			}},
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		c.Sim.RunUntil(crashAt + sim.Time(cfg.Core.ResponderBound()+cfg.Core.TMin) + 1)
		for pid, n := range c.Participants {
			if n.Status() == core.StatusActive {
				t.Logf("cfg %+v: p[%d] survived p[0]'s crash", cfg, pid)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDynamicChurnHarmless: random sequences of joins completing
// and graceful leaves never inactivate anyone, as long as nothing crashes
// and nothing is lost.
func TestPropertyDynamicChurnHarmless(t *testing.T) {
	f := func(seed int64, leaveMask uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := ClusterConfig{
			Protocol: ProtocolDynamic,
			Core:     core.Config{TMin: 2, TMax: 8},
			N:        4,
			Seed:     seed,
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		c.Sim.RunUntil(100) // everyone joins
		leavers := map[core.ProcID]bool{}
		for i := 0; i < 4; i++ {
			if leaveMask&(1<<uint(i)) != 0 {
				pid := core.ProcID(i + 1)
				leavers[pid] = true
				c.Sim.RunUntil(c.Sim.Now() + sim.Time(rng.Intn(40)))
				if err := c.Participants[pid].Leave(); err != nil {
					return false
				}
			}
		}
		c.Sim.RunUntil(c.Sim.Now() + 1000)
		if c.Coordinator.Status() != core.StatusActive {
			t.Logf("coordinator died under churn (mask %b)", leaveMask)
			return false
		}
		for pid, n := range c.Participants {
			want := core.StatusActive
			if leavers[pid] {
				want = core.StatusLeft
			}
			if n.Status() != want {
				t.Logf("p[%d] = %v, want %v (mask %b)", pid, n.Status(), want, leaveMask)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEventTimesMonotone: recorded events never go backwards in
// virtual time, under arbitrary loss.
func TestPropertyEventTimesMonotone(t *testing.T) {
	f := func(seed int64, lossRaw uint8) bool {
		cfg := ClusterConfig{
			Protocol: ProtocolStatic,
			Core:     core.Config{TMin: 2, TMax: 8},
			N:        3,
			Link:     netem.LinkConfig{LossProb: float64(lossRaw%60) / 100, MaxDelay: 1},
			Seed:     seed,
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		c.Sim.RunUntil(500)
		c.Participants[2].Crash()
		c.Sim.RunUntil(1500)
		last := core.Tick(-1)
		for _, e := range c.Events {
			if e.Time < last {
				return false
			}
			last = e.Time
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySuspectPrecedesCoordinatorInactivation: whenever the
// coordinator inactivates non-voluntarily, a suspicion event for some
// participant is recorded at the same instant, never after.
func TestPropertySuspectPrecedesCoordinatorInactivation(t *testing.T) {
	f := func(seed int64) bool {
		cfg := ClusterConfig{
			Protocol: ProtocolBinary,
			Core:     core.Config{TMin: 2, TMax: 8},
			Link:     netem.LinkConfig{LossProb: 0.3}, // heavy loss forces breakdowns
			Seed:     seed,
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		if err := c.Start(); err != nil {
			return false
		}
		c.Sim.RunUntil(3000)
		var inact, suspect *Event
		for i := range c.Events {
			e := &c.Events[i]
			if e.Node != 0 {
				continue
			}
			if e.Kind == EventInactivated && inact == nil {
				inact = e
			}
			if e.Kind == EventSuspect && suspect == nil {
				suspect = e
			}
		}
		if inact == nil {
			return true // no breakdown this seed
		}
		return suspect != nil && suspect.Time == inact.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
