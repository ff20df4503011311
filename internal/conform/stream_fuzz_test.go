package conform

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/models"
)

// fuzzHorizon bounds the fuzzed streams' time checking.
const fuzzHorizon = core.Tick(64)

// fuzzChecks builds the fuzz target's specs once per process: the
// smallest adaptive family plus its plain base spec.
var fuzzChecks = sync.OnceValues(func() (*CampaignCheck, *CampaignCheck) {
	env := models.Envelope{TMinLo: 2, TMinHi: 2, TMaxLo: 4, TMaxHi: 8}
	model := models.Config{TMin: 2, TMax: 4, Variant: models.Static, N: 1, Fixed: true}
	return &CampaignCheck{Model: model, Envelope: &env}, &CampaignCheck{Model: model}
})

// parseFuzzTrace decodes an event per line, "<time> <kind> <a> <b>" in
// decimal, skipping lines whose fields do not all parse. Times are
// arbitrary (negative, out of order); the kind is any byte, in the
// enumeration or not, and the arguments any int32 — so a label can name a
// process the model lacks, carry an argument its kind does not render, or
// be of no kind at all, as a corrupted event would. Capped so a single
// input stays cheap.
func parseFuzzTrace(data string) []Event {
	var events []Event
	for _, line := range strings.Split(data, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			continue
		}
		t, errT := strconv.ParseInt(f[0], 10, 64)
		k, errK := strconv.ParseUint(f[1], 10, 8)
		a, errA := strconv.ParseInt(f[2], 10, 32)
		b, errB := strconv.ParseInt(f[3], 10, 32)
		if errors.Join(errT, errK, errA, errB) != nil {
			continue
		}
		events = append(events, Event{Time: core.Tick(t), Label: alphabet.Label{Kind: alphabet.Kind(k), A: int32(a), B: int32(b)}})
		if len(events) >= 1<<12 {
			break
		}
	}
	return events
}

// fuzzEvent renders one event line of the fuzz input.
func fuzzEvent(time int64, k alphabet.Kind, a, b int64) string {
	return fmt.Sprintf("%d %d %d %d\n", time, k, a, b)
}

// FuzzStreamChecker feeds arbitrary event sequences — retunes outside the
// envelope, out-of-order virtual timestamps, labels outside the alphabet —
// through the streaming checker and demands it (a) never panics, (b) is
// deterministic, (c) agrees byte-for-byte with the offline replay
// checkers on verdicts, piecewise counters, and the first divergence, and
// (d) agrees with the independent reference checker (oracle_test.go),
// which shares none of the engine's frontier machinery and looks labels up
// by text, not through the dense index. Seeded below: the shapes that fall
// outside the specification's index — a negative sender, a process the
// model does not have, a kind outside the enumeration, int32 extremes, an
// argument the kind does not render — and retunes with a negative bound
// or off the envelope's levels. The checked-in corpus spells kinds by
// number (Retune is 27, DeliverBeatP0 7): a kind added before those
// renumbers them.
func FuzzStreamChecker(f *testing.F) {
	const garbage = alphabet.NumKinds + 7
	for _, seed := range [][]string{
		{fuzzEvent(0, alphabet.Retune, 2, 4), fuzzEvent(1, garbage, 1, 0), fuzzEvent(2, alphabet.DeliverBeatP0, 1, 0)},
		{fuzzEvent(0, alphabet.Retune, 2, -4), fuzzEvent(1, alphabet.Retune, 2, 8), fuzzEvent(3, alphabet.Timeout, 0, 0)},
		{fuzzEvent(5, alphabet.DeliverBeatP0, 1, 0), fuzzEvent(2, alphabet.SendBeat, 1, 0), fuzzEvent(-3, alphabet.Tick, 0, 0)},
		{fuzzEvent(0, alphabet.Retune, 3, 5), fuzzEvent(1, alphabet.Retune, -2, 4)},
		{fuzzEvent(1, alphabet.SendBeat, 1, 0), fuzzEvent(2, alphabet.DeliverBeatP0, 1, 0), fuzzEvent(3, alphabet.Timeout, 0, 0),
			fuzzEvent(63, alphabet.Inactivate, 1, 0)},
		{fuzzEvent(0, alphabet.DecideLeave, 1, 0), fuzzEvent(1, alphabet.Restart, 1, 0), fuzzEvent(2, alphabet.Rejoin, 1, 0),
			fuzzEvent(3, alphabet.DeliverStray, 1, 2)},
		{fuzzEvent(1, alphabet.Crash, 2, 0), fuzzEvent(2, alphabet.Inactivate, 7, 0), fuzzEvent(3, alphabet.DeliverBeatP0, 0, 5),
			fuzzEvent(4, alphabet.DeliverLeaveP0, 1, 9), fuzzEvent(5, alphabet.Tau, 0, 0), fuzzEvent(6, alphabet.FigTimeout, 0, 0)},
		{fuzzEvent(0, alphabet.Restart, 1, 0), fuzzEvent(0, alphabet.SendBeat, 0, 0), fuzzEvent(0, alphabet.DeliverBeat, 1, 0),
			fuzzEvent(0, alphabet.SendBeat, 1, 0), fuzzEvent(1, alphabet.Retune, 2, 8), fuzzEvent(1, alphabet.Tick, 3, 0),
			fuzzEvent(9, alphabet.Timeout, 0, 0)},
		{fuzzEvent(0, alphabet.SendBeat, 0, 0), fuzzEvent(0, alphabet.DeliverBeat, 1, 0), fuzzEvent(0, alphabet.SendBeat, 1, 0),
			fuzzEvent(1, alphabet.DeliverBeatP0, -3, 0), fuzzEvent(1, alphabet.Crash, 2, 0)},
		{fuzzEvent(0, alphabet.Retune, 2, 4), fuzzEvent(1, alphabet.Crash, math.MaxInt32, 0),
			fuzzEvent(2, alphabet.Inactivate, math.MinInt32, 0), "3 \xff\xfe\n", fuzzEvent(4, alphabet.DeliverStray, -1, -1),
			fuzzEvent(5, 255, math.MinInt32, math.MaxInt32)},
	} {
		f.Add(strings.Join(seed, ""))
	}
	f.Fuzz(func(t *testing.T, data string) {
		events := parseFuzzTrace(data)
		adaptive, plain := fuzzChecks()

		// Piecewise: offline CheckTraceAdaptive is the oracle.
		pr, err := adaptive.CheckTraceAdaptive(events, fuzzHorizon)
		if err != nil {
			t.Fatalf("CheckTraceAdaptive: %v", err)
		}
		run := func() *StreamResult {
			sc, err := NewStreamChecker(StreamConfig{Check: adaptive, Horizon: fuzzHorizon})
			if err != nil {
				t.Fatalf("NewStreamChecker: %v", err)
			}
			for _, ev := range events {
				sc.Feed(ev)
			}
			res, err := sc.Finish(0)
			if err != nil {
				t.Fatalf("Finish: %v", err)
			}
			return res
		}
		sres := run()
		requireSameDivergence(t, pr.Unconfirmed, sres.Unconfirmed, events)
		if sres.Confirmed != pr.Confirmed || sres.Degraded != pr.Degraded ||
			sres.Retunes != pr.Retunes || sres.Saturations != pr.Saturations ||
			sres.FinalLevel != pr.FinalLevel {
			t.Fatalf("piecewise counters differ:\n  stream:  %+v\n  offline: %+v", sres, pr)
		}
		env := adaptive.Envelope
		monCfg := env.LevelConfig(adaptive.Model, env.Levels()-1)
		if tv := EvaluateTrace(monCfg, events, 0, fuzzHorizon); !reflect.DeepEqual(sres.Verdicts, tv) {
			t.Fatalf("verdicts differ:\n  stream:  %+v\n  offline: %+v", sres.Verdicts, tv)
		}
		if again := run(); !reflect.DeepEqual(again, sres) {
			t.Fatalf("stream checking is nondeterministic:\n  first:  %+v\n  second: %+v", sres, again)
		}

		// Plain: offline Spec.CheckTrace is the oracle.
		sp, err := plain.Spec()
		if err != nil {
			t.Fatalf("Spec: %v", err)
		}
		div := sp.CheckTrace(events, fuzzHorizon)
		psc, err := NewStreamChecker(StreamConfig{Check: plain, Horizon: fuzzHorizon})
		if err != nil {
			t.Fatalf("NewStreamChecker(plain): %v", err)
		}
		for _, ev := range events {
			psc.Feed(ev)
		}
		pres, err := psc.Finish(0)
		if err != nil {
			t.Fatalf("Finish(plain): %v", err)
		}
		requireSameDivergence(t, div, pres.Unconfirmed, events)

		// The reference checker is the oracle for the engine itself.
		requireAgainstReference(t, adaptive, events, fuzzHorizon)
		requireAgainstReference(t, plain, events, fuzzHorizon)
	})
}
