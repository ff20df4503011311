package faults

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
)

func TestParseSchedule(t *testing.T) {
	text := `
# a full campaign
seed 42
loss      t=0 all pgb=0.05 pbg=0.5 lb=0.9
crash     t=100 node=1
restart   t=400 node=1
partition t=200 node=2; heal t=400 node=2
linkdown  t=50 from=1 to=0
linkup    t=80 from=1 to=0
dup       t=0 prob=0.05
reorder   t=0 prob=0.1 maxdelay=3
drift     t=0 node=2 rate=102/100 skew=5
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 {
		t.Fatalf("seed = %d", s.Seed)
	}
	if len(s.Events) != 10 {
		t.Fatalf("parsed %d events, want 10: %+v", len(s.Events), s.Events)
	}
	loss := s.Events[0]
	if loss.Kind != KindLoss || !loss.AllLinks || loss.GE == nil ||
		loss.GE.PGoodBad != 0.05 || loss.GE.PBadGood != 0.5 || loss.GE.LossBad != 0.9 {
		t.Fatalf("loss event = %+v", loss)
	}
	if e := s.Events[1]; e.Kind != KindCrash || e.At != 100 || e.Node != 1 {
		t.Fatalf("crash event = %+v", e)
	}
	if e := s.Events[3]; e.Kind != KindPartition || e.At != 200 || e.Node != 2 {
		t.Fatalf("partition event = %+v", e)
	}
	if e := s.Events[9]; e.Kind != KindDrift || e.Num != 102 || e.Den != 100 || e.Skew != 5 {
		t.Fatalf("drift event = %+v", e)
	}
}

// TestParseScheduleRoundTrip pins Format for one line of every directive,
// every field set away from its default, and the expansion of every
// topology directive; the rendering must reparse to the same schedule.
func TestParseScheduleRoundTrip(t *testing.T) {
	text := `seed 7
crash t=10 node=3
restart t=20 node=3
partition t=30 node=4
heal t=40 node=4
linkdown t=50 from=1 to=2
linkup at=60 from=1 to=2
loss t=0 all pgb=0.1 pbg=0.5 lg=0.01 lb=1
loss t=5 from=2 to=1 pgb=0.2 pbg=0.3 lg=0.02 lb=0.9
dup t=5 prob=0.05
reorder t=5 prob=0.2 maxdelay=4
drift t=7 node=2 rate=102/100 skew=5
delay t=8 from=0 to=1 mindelay=2 maxdelay=4
delay t=9 all mindelay=1 maxdelay=3
leave t=100 node=5
rejoin t=300 node=5
topo racks=0:0,1:1 zones=1:1
rackfail t=400 rack=1
rackheal t=500 rack=1
rackloss t=410 rack=1 pgb=0.1 pbg=0.5 lg=0.05 lb=0.9
zonedelay t=420 from=0 to=1 mindelay=2 maxdelay=4
churn t=600 stagger=10 down=40 nodes=0,1
`
	want := `seed 7
crash t=10 node=3
restart t=20 node=3
partition t=30 node=4
heal t=40 node=4
linkdown t=50 from=1 to=2
linkup t=60 from=1 to=2
loss t=0 all pgb=0.1 pbg=0.5 lg=0.01 lb=1
loss t=5 from=2 to=1 pgb=0.2 pbg=0.3 lg=0.02 lb=0.9
dup t=5 prob=0.05
reorder t=5 prob=0.2 maxdelay=4
drift t=7 node=2 rate=102/100 skew=5
delay t=8 from=0 to=1 mindelay=2 maxdelay=4
delay t=9 all mindelay=1 maxdelay=3
leave t=100 node=5
rejoin t=300 node=5
linkdown t=400 from=0 to=1
linkdown t=400 from=1 to=0
linkup t=500 from=0 to=1
linkup t=500 from=1 to=0
loss t=410 from=0 to=1 pgb=0.1 pbg=0.5 lg=0.05 lb=0.9
loss t=410 from=1 to=0 pgb=0.1 pbg=0.5 lg=0.05 lb=0.9
delay t=420 from=0 to=1 mindelay=2 maxdelay=4
leave t=600 node=0
rejoin t=640 node=0
leave t=610 node=1
rejoin t=650 node=1
`
	s, err := ParseSchedule(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Format(); got != want {
		t.Fatalf("Format:\n%s\nwant:\n%s", got, want)
	}
	again, err := ParseSchedule(want)
	if err != nil {
		t.Fatalf("reparse of Format: %v", err)
	}
	// Expanded events carry Num = Den = 0 where parsed ones carry 1/1, so
	// the reparse is compared as text.
	if got := again.Format(); got != want {
		t.Fatalf("Format not a fixpoint:\n%s", got)
	}
	names := []string{"Kind(0)", "crash", "restart", "partition", "heal", "linkdown", "linkup",
		"loss", "dup", "reorder", "drift", "delay", "leave", "rejoin", "Kind(14)"}
	for k, name := range names {
		if got := Kind(k).String(); got != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, name)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, text := range []string{
		"explode t=1",                                          // unknown directive
		"crash node=1",                                         // missing time
		"crash t=x node=1",                                     // bad time
		"crash t node=1",                                       // no value
		"dup t=0 prob=nope",                                    // bad float
		"crash t=0 node=1 x=2",                                 // unknown field
		"drift t=0 node=1 rate=0/0",                            // zero rate
		"seed",                                                 // missing value
		"reorder t=0 prob=0.5",                                 // missing maxdelay
		"drift t=0 node=1 rate=32769/1",                        // MaxDriftTerm+1
		"drift t=0 node=1 rate=1/32769",                        //
		"drift t=0 node=1 rate=9223372036854775807/1",          // overflowed DriftClock
		"drift t=0 node=1 rate=1/9223372036854775807",          //
		"crash t=1099511627777 node=1",                         // MaxTicks+1
		"reorder t=0 prob=0.5 maxdelay=1099511627777",          //
		"drift t=0 node=1 rate=1/1 skew=1099511627777",         //
		"drift t=0 node=1 rate=1/1 skew=-1099511627777",        //
		"drift t=5 node=1 rate=1/1 skew=9223372036854775807",   // wrapped local time negative
		"delay t=0 all mindelay=0 maxdelay=999999999999999999", // far past MaxTicks
		"rackfail t=0 rack=1",                                  // no topo
		"topo racks=0:0,1:1; rackfail t=0 rack=2",              // empty fault domain
		"topo racks=0:0,1:1; churn t=0 stagger=1 down=2",       // no nodes
		"topo racks=0",                                         // not a pair
		"topo racks=0:0 rack=1",                                // field of another directive
	} {
		if _, err := ParseSchedule(text); !errors.Is(err, ErrSchedule) {
			t.Errorf("ParseSchedule(%q) = %v, want ErrSchedule", text, err)
		}
	}
}

// TestParseScheduleStrayFields: every directive rejects a field only other
// directives take, and the bare "all" unless it is loss or delay, naming
// the line and the word. Each base schedule parses on its own, so the
// stray word on its last line is what the error is about.
func TestParseScheduleStrayFields(t *testing.T) {
	const topo = "topo racks=0:0,1:1 zones=1:1\n"
	for _, tc := range []struct{ base, stray string }{
		{"crash t=0 node=1", "prob=0.5"},
		{"restart t=0 node=1", "from=1"},
		{"partition t=0 node=1", "rate=2/1"},
		{"partition t=0 node=1\nheal t=1 node=1", "skew=1"},
		{"linkdown t=0 from=1 to=0", "node=1"},
		{"linkdown t=0 from=1 to=0\nlinkup t=1 from=1 to=0", "prob=0.1"},
		{"loss t=0 all", "mindelay=1"},
		{"dup t=0 prob=0.1", "maxdelay=3"},
		{"reorder t=0 prob=0.1 maxdelay=3", "mindelay=1"},
		{"drift t=0 node=1", "prob=0.1"},
		{"delay t=0 all", "pgb=0.1"},
		{"leave t=0 node=1", "rate=1/1"},
		{"rejoin t=0 node=1", "stagger=1"},
		{topo + "rackfail t=0 rack=1", "node=1"},
		{topo + "rackfail t=0 rack=1\nrackheal t=1 rack=1", "pgb=0.1"},
		{topo + "rackloss t=0 rack=1", "prob=0.1"},
		{topo + "zonedelay t=0 from=0 to=1", "rack=1"},
		{topo + "churn t=0 nodes=1", "node=1"},
		{"crash t=0 node=1", "all"},
		{"restart t=0 node=1", "all"},
		{"partition t=0 node=1", "all"},
		{"partition t=0 node=1\nheal t=1 node=1", "all"},
		{"linkdown t=0 from=1 to=0", "all"},
		{"linkdown t=0 from=1 to=0\nlinkup t=1 from=1 to=0", "all"},
		{"dup t=0 prob=0.1", "all"},
		{"reorder t=0 prob=0.1 maxdelay=3", "all"},
		{"drift t=0 node=1", "all"},
		{"leave t=0 node=1", "all"},
		{"rejoin t=0 node=1", "all"},
		{topo + "rackfail t=0 rack=1", "all"},
		{topo + "rackfail t=0 rack=1\nrackheal t=1 rack=1", "all"},
		{topo + "rackloss t=0 rack=1", "all"},
		{topo + "zonedelay t=0 from=0 to=1", "all"},
		{topo + "churn t=0 nodes=1", "all"},
	} {
		if _, err := ParseSchedule(tc.base); err != nil {
			t.Errorf("base %q rejected: %v", tc.base, err)
			continue
		}
		text := tc.base + " " + tc.stray
		line := fmt.Sprintf("line %d:", strings.Count(text, "\n")+1)
		_, err := ParseSchedule(text)
		if !errors.Is(err, ErrSchedule) || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), tc.stray) {
			t.Errorf("ParseSchedule(%q) = %v, want ErrSchedule naming %q and %q", text, err, line, tc.stray)
		}
	}
}

// TestScheduleBounds: the largest rate terms and times a schedule may
// carry are accepted by the parser and by SetDrift, one more is ErrSchedule
// from both, and at the limit the drift arithmetic stays inside int64 for
// the longest delay the simulator can hold.
func TestScheduleBounds(t *testing.T) {
	for _, text := range []string{
		"drift t=0 node=1 rate=32768/1",
		"drift t=0 node=1 rate=1/32768",
		"crash t=1099511627776 node=1",
		"reorder t=0 prob=0.5 maxdelay=1099511627776",
		"drift t=0 node=1 rate=1/1 skew=1099511627776",
		"drift t=0 node=1 rate=1/1 skew=-1099511627776",
	} {
		if _, err := ParseSchedule(text); err != nil {
			t.Errorf("ParseSchedule(%q) = %v, want it accepted", text, err)
		}
	}
	const horizon = 1<<48 - 1
	for _, tc := range []struct {
		num, den int64
		skew     core.Tick
		ok       bool
	}{
		{MaxDriftTerm, 1, 0, true},
		{1, MaxDriftTerm, 0, true},
		{MaxDriftTerm, MaxDriftTerm, 0, true},
		{MaxDriftTerm + 1, 1, 0, false},
		{1, MaxDriftTerm + 1, 0, false},
		{math.MaxInt64, 1, 0, false},
		{1, math.MaxInt64, 0, false},
		{1, 1, MaxTicks, true},
		{1, 1, -MaxTicks, true},
		{1, 1, MaxTicks + 1, false},
		{1, 1, -MaxTicks - 1, false},
		{1, 1, math.MaxInt64, false},
		{1, 1, math.MinInt64, false},
	} {
		fc := &fakeClock{}
		dc := NewDriftClock(fc)
		err := dc.SetDrift(tc.num, tc.den, tc.skew)
		if verr := (Event{Kind: KindDrift, Num: tc.num, Den: tc.den, Skew: tc.skew}).validate(); (err == nil) != (verr == nil) {
			t.Errorf("rate %d/%d skew %d: SetDrift = %v but validate = %v", tc.num, tc.den, tc.skew, err, verr)
		}
		if !tc.ok {
			if !errors.Is(err, ErrSchedule) {
				t.Errorf("SetDrift(%d/%d, skew %d) = %v, want ErrSchedule", tc.num, tc.den, tc.skew, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("SetDrift(%d/%d, skew %d) = %v, want it accepted", tc.num, tc.den, tc.skew, err)
			continue
		}
		if tc.skew != 0 {
			// Local time is real time plus the jump, on both sides of zero.
			fc.now = MaxTicks
			if got, want := dc.Now(), sim.Time(MaxTicks)+sim.Time(tc.skew); got != want {
				t.Errorf("skew %d: Now() = %d at real time %d, want %d", tc.skew, got, int64(MaxTicks), want)
			}
			continue
		}
		fc.now = horizon
		dc.NewTimer(func(uint64) {}).Reset(horizon, 0)
		if dc.Now() < 0 || fc.lastReset < 0 {
			t.Errorf("rate %d/%d overflows at the horizon: Now() = %d, Reset(horizon) armed %d",
				tc.num, tc.den, dc.Now(), fc.lastReset)
		}
	}
}

func TestDriftClock(t *testing.T) {
	fc := &fakeClock{}
	dc := NewDriftClock(fc)
	if dc.Now() != 0 {
		t.Fatalf("fresh drift clock at %d", dc.Now())
	}
	fc.now = 100
	if dc.Now() != 100 {
		t.Fatalf("rate 1/1 clock at %d, want 100", dc.Now())
	}
	// Double speed from t=100: local = 100 + 2*(real-100).
	if err := dc.SetDrift(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	fc.now = 110
	if got := dc.Now(); got != 120 {
		t.Fatalf("fast clock at %d, want 120", got)
	}
	// A 10-local-tick timer needs only 5 real ticks.
	tm := dc.NewTimer(func(uint64) {})
	tm.Reset(10, 0)
	if fc.lastReset != 5 {
		t.Fatalf("Reset(10) armed %d real ticks, want 5", fc.lastReset)
	}
	// Skew jumps are applied on top, and rate changes anchor continuously.
	if err := dc.SetDrift(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	if got := dc.Now(); got != 127 {
		t.Fatalf("after skew at %d, want 127", got)
	}
	fc.now = 120
	if got := dc.Now(); got != 132 {
		t.Fatalf("slow clock at %d, want 132", got)
	}
	// Rounding up: a 3-local-tick timer at rate 1/2 takes 6 real ticks;
	// at rate 2/1 a 3-tick timer takes ceil(3/2)=2.
	tm.Reset(3, 0)
	if fc.lastReset != 6 {
		t.Fatalf("Reset(3) at rate 1/2 armed %d, want 6", fc.lastReset)
	}
	if err := dc.SetDrift(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	tm.Reset(3, 0)
	if fc.lastReset != 2 {
		t.Fatalf("Reset(3) at rate 2/1 armed %d, want 2", fc.lastReset)
	}
	if err := dc.SetDrift(0, 1, 0); !errors.Is(err, ErrSchedule) {
		t.Fatalf("zero rate accepted: %v", err)
	}
}

// fakeClock is a netem.Clock under the test's hand: the test sets now and
// reads back the delay of the last Reset on any of the clock's timers.
type fakeClock struct {
	now       sim.Time
	lastReset sim.Time
}

func (f *fakeClock) Now() sim.Time                     { return f.now }
func (f *fakeClock) NewTimer(func(uint64)) netem.Timer { return fakeTimer{f} }

type fakeTimer struct{ clock *fakeClock }

func (t fakeTimer) Reset(d sim.Time, _ uint64) { t.clock.lastReset = d }
func (fakeTimer) Stop()                        {}
