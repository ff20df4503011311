package faults

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// FuzzParseSchedule checks the parser/formatter round trip: any schedule
// the parser accepts must Format to text that reparses to a deeply equal
// schedule, and Format must be a fixpoint from then on. This property is
// what lets hbconform print a failing walk's schedule inline as a
// copy-pasteable reproduction. Every input the parser rejects must be
// rejected with ErrSchedule.
//
// Every drift event of an accepted schedule is also applied to a DriftClock
// and must leave its timer arithmetic inside int64.
//
// Bugs this has caught (now fixed and covered by the seed corpus):
//   - NaN probabilities passed validation ("prob < 0 || prob > 1" is false
//     for NaN) and then broke DeepEqual after the round trip.
//   - Fields of one directive were silently accepted on another (e.g.
//     "crash t=0 prob=0.5", "crash t=0 all") and dropped by Format.
//   - Drift rates near MaxInt64 overflowed DriftClock's delay rescaling
//     into a negative delay, which panicked the simulator.
//   - A skew near MaxInt64 wrapped the node's local clock negative.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"seed 42\nloss t=0 all pgb=0.05 pbg=0.5 lb=0.9\ncrash t=100 node=1",
		"restart t=400 node=1\npartition t=200 node=2; heal t=400 node=2",
		"linkdown t=50 from=1 to=0\nlinkup t=80 from=1 to=0",
		"dup t=0 prob=0.05\nreorder t=0 prob=0.1 maxdelay=3",
		"drift t=0 node=2 rate=102/100 skew=5",
		"loss t=3 from=1 to=0 pgb=0.1 pbg=0.5 lb=1",
		"# comment only\n\n;;",
		"dup t=0 prob=NaN",
		"crash t=0 node=1 prob=0.5",
		"crash t=0 all",
		"seed -9223372036854775808",
		"loss t=0 all pgb=1e-300 pbg=0.5 lb=0.25",
		"drift t=0 node=1 rate=9223372036854775807/1",
		"drift t=0 node=1 rate=1/9223372036854775807",
		"drift t=7 node=0 rate=32768/32768 skew=-3",
		"drift t=5 node=1 rate=1/1 skew=9223372036854775807",
		"drift t=5 node=1 rate=1/1 skew=-9223372036854775808",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchedule(text)
		if err != nil {
			if !errors.Is(err, ErrSchedule) {
				t.Fatalf("rejection is not ErrSchedule: %v\ninput: %q", err, text)
			}
			return // rejected input: nothing to round-trip
		}
		formatted := s.Format()
		again, err := ParseSchedule(formatted)
		if err != nil {
			t.Fatalf("Format output rejected: %v\ninput: %q\nformatted: %q", err, text, formatted)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip diverged\ninput: %q\nfirst: %+v\nsecond: %+v", text, s, again)
		}
		if got := again.Format(); got != formatted {
			t.Fatalf("Format not a fixpoint\nfirst: %q\nsecond: %q", formatted, got)
		}
		fc := &fakeClock{}
		dc := NewDriftClock(fc)
		tm := dc.NewTimer(func(uint64) {})
		for _, e := range s.Events {
			if e.Kind != KindDrift {
				continue
			}
			fc.now = max(fc.now, e.At)
			if err := dc.SetDrift(e.Num, e.Den, e.Skew); err != nil {
				t.Fatalf("validated drift %d/%d rejected by SetDrift: %v", e.Num, e.Den, err)
			}
			for _, d := range []sim.Time{0, 1, 1000, 1<<48 - 1} {
				if tm.Reset(d, 0); fc.lastReset < 0 {
					t.Fatalf("drift %d/%d: Reset(%d) armed a negative delay %d", e.Num, e.Den, d, fc.lastReset)
				}
			}
		}
	})
}
