package conform

import (
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

// parseFuzzLabel reads a label text through the alphabet's one parser. A
// text that is not a label becomes some label of no kind, derived from its
// bytes, so garbage still reaches the engine — as the out-of-alphabet
// value a corrupted event would be.
func parseFuzzLabel(text string) alphabet.Label {
	if l, ok := alphabet.Parse(text); ok {
		return l
	}
	h := uint32(2166136261)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint32(text[i])) * 16777619
	}
	outside := uint32(256 - int(alphabet.NumKinds))
	return alphabet.Label{Kind: alphabet.NumKinds + alphabet.Kind(h%outside), A: int32(h >> 8), B: int32(len(text))}
}

// parseFuzzTrace decodes an event per line, "<time> <label>", skipping
// lines with no time. Times are arbitrary (negative, out of order); labels
// are arbitrary bytes. Capped so a single input stays cheap.
func parseFuzzTrace(data string) []Event {
	var events []Event
	for _, line := range strings.Split(data, "\n") {
		t, label, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			continue
		}
		events = append(events, Event{Time: core.Tick(n), Label: parseFuzzLabel(label)})
		if len(events) >= 1<<12 {
			break
		}
	}
	return events
}

// FuzzStreamChecker feeds arbitrary event sequences — malformed retune
// labels, out-of-order virtual timestamps, garbage labels — through the
// streaming checker and demands it (a) never panics, (b) is
// deterministic, (c) agrees byte-for-byte with the offline replay
// checkers on verdicts, piecewise counters, and the first divergence, and
// (d) agrees with the independent reference checker (oracle_test.go),
// which shares none of the engine's frontier machinery and looks labels up
// by text, not through the dense table. This target caught the
// trailing-junk bug of the first retune parser ("p[0]: retune to (2,4)x"
// was accepted as an envelope transition); that text, the non-canonical
// process indices an early monitor accepted ("crash p[01]" as p[1]), and
// the shapes that fall outside the specification's table — a negative
// sender, a process the model does not have, a label of no kind — are
// seeded below.
func FuzzStreamChecker(f *testing.F) {
	f.Add("0 p[0]: retune to (2,4)\n1 p[1]: frobnicate\n2 deliver beat to p[0] from p[1]")
	f.Add("0 p[0]: retune to (2,4)x\n1 p[0]: retune to (2,8)\n3 timeout p[0]")
	f.Add("5 deliver beat to p[0] from p[1]\n2 p[1]: send beat\n-3 tick")
	f.Add("0 p[0]: retune to (3,5)\n1 p[0]: retune to (-2,4)")
	f.Add("1 p[1]: send beat\n2 deliver beat to p[0] from p[1]\n3 timeout p[0]\n63 inactivate nv p[1]")
	f.Add("0 p[1]: decide leave\n1 p[1]: restart\n2 p[1]: rejoin\n3 deliver stray beat to p[1] from p[2]")
	f.Add("1 crash p[01]\n2 inactivate nv p[007]\n3 deliver beat to p[0] from p[00]\n4 deliver leave beat to p[0] from p[01]")
	f.Add("0 p[1]: restart\n0 p[0]: send beat\n0 deliver beat to p[1]\n0 p[1]: send beat\n1 p[0]: retune to (2,8)\n1 tick\n9 timeout p[0]")
	f.Add("0 p[0]: send beat\n0 deliver beat to p[1]\n0 p[1]: send beat\n1 deliver beat to p[0] from p[-3]\n1 crash p[2]")
	f.Add("0 p[0]: retune to (2,4)\n1 crash p[2147483647]\n2 inactivate nv p[-2147483648]\n3 \xff\xfe\n4 deliver stray beat to p[-1] from p[-1]")
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
