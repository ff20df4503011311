package fleet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/sim"
)

func testConfig(workers int) Config {
	return Config{
		Clusters:    96,
		ClusterSize: 16,
		Shards:      8,
		Workers:     workers,
		Core:        core.Config{TMin: 2, TMax: 16},
		LossProb:    0.02,
		KillEvery:   64,
		AggFanout:   16,
		Seed:        42,
	}
}

// The fleet's central determinism pin: the full state digest is
// byte-identical at any worker count, because workers claim whole shards
// and cross-shard traffic only moves at barriers. Run under -race this
// also proves the epoch barriers are sound.
func TestFleetDigestIdenticalAcrossWorkers(t *testing.T) {
	var want uint64
	var wantRoot core.Summary
	for i, workers := range []int{1, 2, 4, 8} {
		f, err := New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RunEpochs(20); err != nil {
			t.Fatal(err)
		}
		got := f.Digest()
		if i == 0 {
			want, wantRoot = got, f.Root()
			continue
		}
		if got != want {
			t.Errorf("workers=%d digest %#x, want %#x (workers=1)", workers, got, want)
		}
		if f.Root() != wantRoot {
			t.Errorf("workers=%d root %+v, want %+v", workers, f.Root(), wantRoot)
		}
	}
}

// Same config, same seed, two fleets: identical digests epoch by epoch.
func TestFleetRunIsReproducible(t *testing.T) {
	a, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 12; ep++ {
		if err := a.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if err := b.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		if da, db := a.Digest(), b.Digest(); da != db {
			t.Fatalf("epoch %d: digests diverged (%#x vs %#x)", ep+1, da, db)
		}
	}
}

// With no loss and no kills, nothing is ever suspected: the root summary
// reports every endpoint alive every epoch, every shard liveness beat
// lands, and no aggregator child goes stale.
func TestFleetQuiescentAllAlive(t *testing.T) {
	cfg := testConfig(1)
	cfg.LossProb = 0
	cfg.KillEvery = 0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunEpochs(30); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	want := uint32(f.Endpoints())
	if st.Root.Total != want || st.Root.Alive != want {
		t.Errorf("root %d/%d alive, want %d/%d", st.Root.Alive, st.Root.Total, want, want)
	}
	if st.Root.Detections != 0 || st.Detections != 0 || st.FalseSuspects != 0 || st.Inactivations != 0 {
		t.Errorf("quiescent fleet produced verdicts: %+v", st)
	}
	if st.MissedDeadlines != 0 {
		t.Errorf("missed deadlines: %d", st.MissedDeadlines)
	}
	if st.SilentLinks != 0 {
		t.Errorf("silent shard links: %d", st.SilentLinks)
	}
	if st.StaleChildren != 0 {
		t.Errorf("stale aggregator children: %d", st.StaleChildren)
	}
	if st.Losses != 0 {
		t.Errorf("losses on a loss-free fleet: %d", st.Losses)
	}
}

// With kills but no loss, every killed endpoint is detected within the
// paper's corrected coordinator bound (plus one round of send phase and
// the wire), and no live endpoint is ever suspected.
func TestFleetDetectionWithinBound(t *testing.T) {
	cfg := testConfig(1)
	cfg.LossProb = 0
	cfg.KillEvery = 40
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RunEpochs(60); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Kills == 0 || st.Detections == 0 {
		t.Fatalf("injector idle: %d kills, %d detections", st.Kills, st.Detections)
	}
	if st.FalseSuspects != 0 {
		t.Errorf("false suspicions without loss: %d", st.FalseSuspects)
	}
	if st.LatencyOverflow != 0 {
		t.Errorf("detections past the latency bound: %d", st.LatencyOverflow)
	}
	p50, p99, n := f.DetectionLatency()
	if n == 0 {
		t.Fatal("no latency samples")
	}
	bound := sim.Time(cfg.Core.CoordinatorDetectionBound()) +
		sim.Time(cfg.Core.TMax) + 2*cfg.LinkDelay + 2*1 // LinkDelay defaulted to 1
	if p99 > bound || p50 > p99 {
		t.Errorf("latency p50=%d p99=%d out of order or past bound %d", p50, p99, bound)
	}
}

// Cluster alive counts in the root always equal the flag-derived truth.
func TestFleetRollupMatchesFlags(t *testing.T) {
	f, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 25; ep++ {
		if err := f.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
		var alive, det uint32
		for _, s := range f.shards {
			for _, fl := range s.flags {
				if fl&fSuspected == 0 {
					alive++
				}
			}
			det += uint32(s.detections)
		}
		root := f.Root()
		if root.Alive != alive || root.Detections != det {
			t.Fatalf("epoch %d: root %d alive/%d det, flags say %d/%d",
				ep+1, root.Alive, root.Detections, alive, det)
		}
		if root.Total != uint32(f.Endpoints()) {
			t.Fatalf("epoch %d: root total %d, want %d", ep+1, root.Total, f.Endpoints())
		}
	}
}

// The steady-state per-epoch path — wheel pops, round closes, watchdog
// rearms, summary emission, batch ingest, rollup — allocates nothing.
// This is the fleet's half of the simulator's 0-alloc standard.
func TestFleetSteadyStateAllocFree(t *testing.T) {
	cfg := testConfig(1)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: outbufs grow to steady-state capacity, the calendar's
	// chunk arena reaches its working set.
	if err := f.RunEpochs(10); err != nil {
		t.Fatal(err)
	}
	epoch := func() {
		if err := f.RunEpochs(1); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
		t.Errorf("steady-state epoch allocates %.1f times, want 0", avg)
	}

	// A population collapse must not allocate either: with every beat
	// lost, all 1536 members of one shard are suspected between ticks 30
	// and 45, each leaving a disarmed watchdog word behind, and epoch 2
	// drains those stale words while the ring empties, every chunk going
	// back to the free list. Epoch 1 is AllocsPerRun's warm-up call,
	// epoch 2 its one measured run, so nothing rounds away.
	cfg.Shards, cfg.LossProb, cfg.KillEvery = 1, 1, 0
	if f, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1, epoch); n != 0 {
		t.Errorf("the epoch a fleet collapses in allocates %v times, want 0", n)
	}
	if st := f.Stats(); int(st.Detections) != f.Endpoints() {
		t.Errorf("%d of %d members suspected under total loss", st.Detections, f.Endpoints())
	}
}

// TestFleetRecordedDigests compares the fleet with the past, not with
// itself: the other tests here hold a run against a re-run, which a queue
// that reorders same-tick events consistently passes (shards draw their
// loss verdicts in event order, so any reordering moves every later
// verdict). The first three rows' constants were printed by the commit
// before the timer wheel's slots became logs (the list-based wheel); the
// next five by commit 1791eee, the last whose shards ran on
// sim.TimerWheel, for configs that pin when watchdogs fire
// (inactivations > 0) and kills with periods below and above the calendar
// ring's size; the last three by commit 393fc9b, the last whose shards
// rolled loss with math/rand's Float64, so that they hold the middle and
// the top of the integer loss cut to the float compare it replaced, and
// a loss-free shard's kills to a stream no roll draws from. A
// change that moves them has changed what the fleet computes, and says so.
func TestFleetRecordedDigests(t *testing.T) {
	type point struct {
		epochs                                          int
		digest                                          uint64
		beats, detections, falseSuspects, inactivations uint64
	}
	for _, tc := range []struct {
		name   string
		edit   func(*Config)
		points []point
	}{
		{"bernoulli 1% loss + kills", func(c *Config) { c.LossProb = 0.01 }, []point{
			{1, 0xc94c370d8854a144, 1551, 0, 0, 0},
			{7, 0x8e9f01b4453a0e75, 20136, 18, 0, 0},
			{20, 0x4bbd901a1d4a79d5, 59428, 73, 1, 0},
		}},
		{"loss-free, quiet", func(c *Config) { c.LossProb, c.KillEvery = 0, 0 }, []point{
			{1, 0x1fe2c3f2b03860c4, 1536, 0, 0, 0},
			{7, 0xece3bc60873b1982, 19968, 0, 0, 0},
			{20, 0x5e70575059a39571, 59904, 0, 0, 0},
		}},
		{"fixed, 10% loss + kills", func(c *Config) { c.Core.Fixed, c.LossProb = true, 0.10 }, []point{
			{1, 0x7583e47882bcefb7, 1687, 1, 1, 0},
			{7, 0x67167ac6be39d529, 17169, 974, 957, 981},
			{20, 0xcd13fdaa0edda275, 24011, 1492, 1443, 1428},
		}},
		{"kill every tick", func(c *Config) { c.KillEvery = 1 }, []point{
			{1, 0x488b7cbd5fbfa11e, 1592, 3, 0, 0},
			{7, 0x833c5bdc94bfee3a, 15179, 1400, 0, 0},
			{20, 0x43ccdc0cf658eef3, 15779, 1536, 0, 0},
		}},
		{"kill every 5 ticks", func(c *Config) { c.KillEvery = 5 }, []point{
			{1, 0xe89192d05450041a, 1566, 0, 0, 0},
			{7, 0x48510de2626fc9e3, 19414, 295, 0, 0},
			{20, 0xd5034923d253e983, 45185, 957, 1, 0},
		}},
		{"kill every 300 ticks", func(c *Config) { c.KillEvery = 300 }, []point{
			{1, 0x867483c58b1ea0b2, 1566, 0, 0, 0},
			{7, 0x68724e3698278513, 20378, 3, 3, 0},
			{20, 0x2b1003db57440b2a, 60907, 17, 4, 0},
		}},
		{"fixed, link delay 3", func(c *Config) { c.Core.Fixed, c.LinkDelay = true, 3 }, []point{
			{1, 0xac63a23d0a72c1b2, 1566, 0, 0, 0},
			{7, 0x4abfa8c2490ccc05, 19009, 366, 348, 360},
			{20, 0xe3be62177253bebd, 43774, 879, 807, 856},
		}},
		{"two-phase", func(c *Config) { c.Core.TwoPhase = true }, []point{
			{1, 0x40df2566bff10880, 1581, 45, 45, 0},
			{7, 0x210de20ab1b15de1, 16385, 672, 650, 0},
			{20, 0xb7a95eb42eb4dea9, 30472, 1260, 1191, 0},
		}},
		{"bernoulli 50% loss + kills", func(c *Config) { c.LossProb = 0.5 }, []point{
			{1, 0x12be8f85427da90b, 2420, 90, 90, 0},
			{7, 0x00fc4993095ff3b7, 9899, 1532, 1519, 0},
			{20, 0xf1c3d9818dd33bd9, 9925, 1536, 1523, 0},
		}},
		{"loss-free + kills", func(c *Config) { c.LossProb = 0 }, []point{
			{1, 0x1fe2c3f2b03860c4, 1536, 0, 0, 0},
			{7, 0x55a06ef9074d5d55, 19933, 20, 0, 0},
			{20, 0x8bcf6e0e97078912, 58817, 72, 0, 0},
		}},
		{"every beat lost", func(c *Config) { c.LossProb = 1 }, []point{
			{1, 0x3b6b6c03d6c40f75, 2880, 192, 192, 0},
			{7, 0x10e3afc6e380ec82, 6144, 1536, 1536, 0},
			{20, 0xe195594e87864471, 6144, 1536, 1536, 0},
		}},
	} {
		cfg := testConfig(1)
		tc.edit(&cfg)
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range tc.points {
			if err := f.RunEpochs(want.epochs - int(f.epoch)); err != nil {
				t.Fatal(err)
			}
			st := f.Stats()
			got := point{want.epochs, f.Digest(), st.Beats, st.Detections, st.FalseSuspects, st.Inactivations}
			if got != want {
				t.Errorf("%s, %d epochs:\n got digest %#x, %d beats, %d detections, %d false suspects, %d inactivations\nwant digest %#x, %d beats, %d detections, %d false suspects, %d inactivations",
					tc.name, want.epochs,
					got.digest, got.beats, got.detections, got.falseSuspects, got.inactivations,
					want.digest, want.beats, want.detections, want.falseSuspects, want.inactivations)
			}
		}
	}
}

// Codec round trip: a batch of beats and summaries decodes to exactly
// what was appended, in order.
func TestFleetCodecRoundTrip(t *testing.T) {
	var buf []byte
	beats := []core.Beat{{From: 0, Stay: true}, {From: 63, Stay: true, Inc: 5}}
	sums := []core.Summary{
		{Cluster: 0, Epoch: 1, Total: 64, Alive: 64},
		{Cluster: 1<<20 - 1, Epoch: 7, Total: 64, Alive: 1, Detections: 63},
	}
	buf = appendBeatFrame(buf, beats[0])
	buf = appendSummaryFrame(buf, sums[0])
	buf = appendSummaryFrame(buf, sums[1])
	buf = appendBeatFrame(buf, beats[1])

	d := batchDecoder{buf: buf}
	wantTags := []byte{frameBeat, frameSummary, frameSummary, frameBeat}
	bi, si := 0, 0
	for i, want := range wantTags {
		if d.done() {
			t.Fatalf("batch exhausted at frame %d", i)
		}
		tag, beat, sum, err := d.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tag != want {
			t.Fatalf("frame %d: tag %d, want %d", i, tag, want)
		}
		switch tag {
		case frameBeat:
			if beat != beats[bi] {
				t.Errorf("beat %d: %+v, want %+v", bi, beat, beats[bi])
			}
			bi++
		case frameSummary:
			if sum != sums[si] {
				t.Errorf("summary %d: %+v, want %+v", si, sum, sums[si])
			}
			si++
		}
	}
	if !d.done() {
		t.Errorf("%d trailing bytes after batch", len(d.buf))
	}
}

// Malformed batches surface ErrBadFrame instead of panicking.
func TestFleetCodecRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{
		{frameBeat, 1, 0},       // truncated beat
		{frameSummary, 1, 2, 3}, // truncated summary
		{99},                    // unknown tag
	} {
		d := batchDecoder{buf: buf}
		if _, _, _, err := d.next(); err == nil {
			t.Errorf("batch %v decoded without error", buf)
		}
	}
}

// Summary wire encoding round-trips and Add merges fields the way the
// aggregation tree expects.
func TestSummaryWireAndAdd(t *testing.T) {
	s := core.Summary{Cluster: 9, Epoch: 3, Total: 100, Alive: 97, Detections: 3}
	enc := s.AppendMarshal(nil)
	got, rest, err := core.UnmarshalSummary(enc)
	if err != nil || len(rest) != 0 || got != s {
		t.Fatalf("round trip: %+v rest=%d err=%v", got, len(rest), err)
	}
	if _, _, err := core.UnmarshalSummary(enc[:10]); err == nil {
		t.Error("truncated summary decoded without error")
	}
	agg := core.Summary{Cluster: 500, Epoch: 2}
	agg.Add(s)
	agg.Add(core.Summary{Cluster: 10, Epoch: 5, Total: 50, Alive: 50})
	want := core.Summary{Cluster: 500, Epoch: 5, Total: 150, Alive: 147, Detections: 3}
	if agg != want {
		t.Errorf("Add: %+v, want %+v", agg, want)
	}
}

// TestFleetConfigBounds drives every bounded Config field through New at
// its limit (accepted) and one step past it (an error — never a clamp, a
// silent "unset", an out-of-memory crash or a wheel-horizon panic).
func TestFleetConfigBounds(t *testing.T) {
	base := func(edit func(*Config)) Config {
		c := Config{Clusters: 1, ClusterSize: 1, Core: core.Config{TMin: 2, TMax: 16}}
		edit(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"loss 0", base(func(c *Config) { c.LossProb = 0 }), true},
		{"loss 1", base(func(c *Config) { c.LossProb = 1 }), true},
		{"loss just above 1", base(func(c *Config) { c.LossProb = math.Nextafter(1, 2) }), false},
		{"loss 2", base(func(c *Config) { c.LossProb = 2 }), false},
		{"loss just below 0", base(func(c *Config) { c.LossProb = -math.SmallestNonzeroFloat64 }), false},
		{"loss -1", base(func(c *Config) { c.LossProb = -1 }), false},
		{"loss NaN", base(func(c *Config) { c.LossProb = math.NaN() }), false},
		{"kill-every 0 (never)", base(func(c *Config) { c.KillEvery = 0 }), true},
		{"kill-every -1", base(func(c *Config) { c.KillEvery = -1 }), false},
		{"kill-every at MaxTicks", base(func(c *Config) { c.KillEvery = faults.MaxTicks }), true},
		{"kill-every past MaxTicks", base(func(c *Config) { c.KillEvery = faults.MaxTicks + 1 }), false},
		{"epoch 0 (default)", base(func(c *Config) { c.Epoch = 0 }), true},
		{"epoch -1", base(func(c *Config) { c.Epoch = -1 }), false},
		{"epoch at MaxTicks", base(func(c *Config) { c.Epoch = faults.MaxTicks }), true},
		{"epoch past MaxTicks", base(func(c *Config) { c.Epoch = faults.MaxTicks + 1 }), false},
		{"link delay 0 (default)", base(func(c *Config) { c.LinkDelay = 0 }), true},
		{"link delay -1", base(func(c *Config) { c.LinkDelay = -1 }), false},
		// latCap = (3·tmax − tmin) + tmax + 2·delay + 1.
		{"latency buckets at the cap", base(func(c *Config) { c.Core = core.Config{TMin: 3, TMax: 16384} }), true},
		{"latency buckets one past the cap", base(func(c *Config) { c.Core = core.Config{TMin: 2, TMax: 16384} }), false},
		{"link delay at the cap", base(func(c *Config) { c.LinkDelay = (MaxLatencyBuckets - 63) / 2 }), true},
		{"link delay one past the cap", base(func(c *Config) { c.LinkDelay = (MaxLatencyBuckets-63)/2 + 1 }), false},
		{"hbfleet -tmax 4000000000", base(func(c *Config) { c.Core.TMax = 4000000000 }), false},
		{"tmax that would overflow the sum", base(func(c *Config) { c.Core.TMax = math.MaxInt64 }), false},
		{"link delay that would overflow the sum", base(func(c *Config) { c.LinkDelay = faults.MaxTicks }), false},
		// The largest calendar ring (TestCalendarLargestRing): with 2·tmin >
		// tmax the buckets are 3·tmax + 3, one short of the cap at tmax 21844.
		{"largest calendar ring", base(func(c *Config) { c.Core = core.Config{TMin: 10923, TMax: 21844} }), true},
		{"one tick of tmax past it", base(func(c *Config) { c.Core = core.Config{TMin: 10923, TMax: 21845} }), false},
		// A calendar word names a row in 29 bits. Past 2^29 rows the round
		// word of row 2^29+k would read as row k's watchdog word and be
		// skipped, leaving the member unmonitored. (No accept row at 2^29:
		// it would allocate gigabytes.)
		{"shards 0 (default)", base(func(c *Config) { c.Shards = 0 }), true},
		{"shards -1", base(func(c *Config) { c.Shards = -1 }), false},
		{"shards -3", base(func(c *Config) { c.Shards = -3 }), false},
		{"workers 0 (default)", base(func(c *Config) { c.Workers = 0 }), true},
		{"workers -1", base(func(c *Config) { c.Workers = -1 }), false},
		{"agg fanout 0 (default)", base(func(c *Config) { c.AggFanout = 0 }), true},
		{"agg fanout -1", base(func(c *Config) { c.AggFanout = -1 }), false},
		{"2^29 + 2^16 rows in one shard", base(func(c *Config) { c.Clusters, c.ClusterSize, c.Shards = 8193, 1<<16, 1 }), false},
		{"2^29 + 2^16 rows in the first of two shards", base(func(c *Config) { c.Clusters, c.ClusterSize, c.Shards = 16385, 1<<16, 2 }), false},
	} {
		f, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: New = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		for _, s := range f.shards {
			if len(s.latHist) > MaxLatencyBuckets {
				t.Errorf("%s: %d latency buckets, cap %d", tc.name, len(s.latHist), MaxLatencyBuckets)
			}
			if s.cal.Size() > 1<<17 {
				t.Errorf("%s: calendar ring of %d slots, cap 2^17 (1 MiB of headers)", tc.name, s.cal.Size())
			}
			for _, w := range s.wait {
				if core.Tick(w) != tc.cfg.Core.TMax {
					t.Errorf("%s: initial wait %d, want tmax %d", tc.name, w, tc.cfg.Core.TMax)
				}
			}
		}
	}
}

// TestFleetIngestErrorIsLowestShards: when more than one shard's batch is
// malformed, the error returned is the lowest-numbered failing shard's at
// every worker count — what the sequential loop returns — not whichever
// goroutine lost a race. The two halves of an epoch are driven exactly as
// RunEpochs drives them, with the corruption injected at the barrier.
func TestFleetIngestErrorIsLowestShards(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		f, err := New(testConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		f.epoch++
		par.Do(len(f.shards), workers, f.stepShard)
		f.clock += f.cfg.Epoch
		// Unknown frame tags 0xF0|dst on the batches for shards 6, 2 and 5.
		for _, dst := range []int{6, 2, 5} {
			f.shards[0].outbuf[dst] = append(f.shards[0].outbuf[dst], 0xF0|byte(dst))
		}
		for round := 0; round < 100; round++ {
			done, err := par.Do(len(f.shards), workers, f.ingestShard)
			if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "unknown tag 242") || done != 2 {
				t.Fatalf("workers=%d round %d: ingest = (%d, %v), want shard 2's unknown tag 242", workers, round, done, err)
			}
		}
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := New(Config{Clusters: 1, ClusterSize: 1, Core: core.Config{TMin: 10, TMax: 2}}); err == nil {
		t.Error("inverted tmin/tmax accepted")
	}
	if _, err := New(Config{Clusters: 1 << 21, ClusterSize: 1}); err == nil {
		t.Error("oversized fleet accepted")
	}
	// Shards clamp to Clusters; defaults fill in.
	f, err := New(Config{Clusters: 3, ClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.shards); got != 3 {
		t.Errorf("3 clusters spread over %d shards, want 3", got)
	}
	if err := f.RunEpochs(5); err != nil {
		t.Fatal(err)
	}
}
