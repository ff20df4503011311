package scenario

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/detector"
	"repro/internal/models"
	"repro/internal/sim"
)

// sourcesBuilt counts the random sources built so far — math/rand
// sources and sim.Streams — as the heap profile records them; with
// runtime.MemProfileRate at 1 it sees every one. A stream is counted where
// sim.NewStream allocates it: after the first stream in a process, which
// recovers math/rand's table from one math/rand source, it calls no
// math/rand function at all.
func sourcesBuilt() int64 {
	// A profile is published by the garbage collections after the
	// allocations it records.
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var built int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "math/rand.NewSource" || f.Function == "repro/internal/sim.NewStream" {
				built += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return built
}

var (
	sourceSink rand.Source
	streamSink *sim.Stream
)

// TestLosslessTrialBuildsNoSource: a campaign trial whose links are
// lossless and jitter-free, under a schedule that draws nothing (a churn
// storm) and a supervisor without jitter, builds no random source at all —
// neither the simulator's, nor the network's, nor the fault layer's, nor
// the supervisor's. A rack-loss trial, whose fault layer does draw, builds
// exactly the fault layer's.
func TestLosslessTrialBuildsNoSource(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	// The process's first stream also builds the math/rand source its
	// table is recovered from; the probe is checked past it.
	streamSink = sim.NewStream(1)
	before := sourcesBuilt()
	sourceSink = rand.NewSource(1)
	if got := sourcesBuilt() - before; got != 1 {
		t.Fatalf("the probe counted %d sources for one rand.NewSource", got)
	}
	before = sourcesBuilt()
	streamSink = sim.NewStream(1)
	if got := sourcesBuilt() - before; got != 1 {
		t.Fatalf("the probe counted %d sources for one sim.NewStream", got)
	}

	churn, err := ChurnStormScenario(campaignN(models.Dynamic))
	if err != nil {
		t.Fatal(err)
	}
	rack, err := RackLossScenario(campaignN(models.Static))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  CampaignConfig
		want int64
	}{
		{"churn storm", adaptiveCampaign(models.Dynamic, churn, 1, 1), 0},
		{"rack loss", adaptiveCampaign(models.Static, rack, 1, 1), 1},
	} {
		tc.cfg.Heal = &detector.SupervisorConfig{Backoff: detector.Backoff{Base: 2}}
		// Specs are built, and cached, by the first campaign.
		if _, err := RunCampaign(tc.cfg); err != nil {
			t.Fatal(err)
		}
		before := sourcesBuilt()
		res, err := RunCampaign(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := sourcesBuilt() - before; got != tc.want {
			t.Errorf("%s trial built %d random sources, want %d", tc.name, got, tc.want)
		}
		if res.Events.N() == 0 {
			t.Errorf("%s trial ran no events", tc.name)
		}
	}
}
