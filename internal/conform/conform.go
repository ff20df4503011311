// Package conform checks the detector runtime against the timed-automata
// models: a differential, trace-based conformance layer in the spirit of
// runtime verification of distributed protocols.
//
// The pieces:
//
//   - A Recorder (a detector.Observer) abstracts every machine step of a
//     running cluster into the event alphabet internal/models uses for LTS
//     labels — "p[0]: send beat", "deliver beat to p[1]", "timeout p[0]",
//     "inactivate nv p[1]", … — with virtual timestamps. It works over any
//     clock; under the discrete-event simulator the recorded order is the
//     execution order.
//   - A Spec is the variant's model LTS (built monitor-free via
//     mc.BuildLTS) with unobservable labels hidden and the join-delivery
//     labels merged into the plain delivery labels (the wire does not
//     distinguish them). Spec.CheckTrace replays a recorded trace by
//     antichain simulation: a frontier of model states is advanced through
//     tau-closure, "tick" steps for time passing, and the visible labels of
//     the trace. An empty frontier is a divergence — the runtime did
//     something (or let time pass) that no model execution matches — and is
//     reported with the consumed prefix as an ASCII message sequence chart.
//   - EvaluateTrace re-evaluates the paper's requirements R1–R3 directly
//     on a recorded trace, so chaos campaigns double as spec-conformance
//     runs, and DiffVerdicts cross-checks runtime verdicts against the
//     model checker's.
//   - Explore drives seeded random walks (randomised timing constants,
//     node counts, fault schedules) through all of the above and shrinks
//     failing runs to minimal schedules.
//
// Scope: message loss is unobservable at the runtime level (a lost beat
// leaves no event), so the checker tracks the lost-versus-in-flight
// ambiguity inside the frontier. Graceful leave and process restart are
// excluded from conformance runs: the runtime's leave protocol
// (leaver-initiated, with an out-of-band coordinator acknowledgement) is
// structurally different from the model's reply-piggybacked leave, and
// restart has no model counterpart. Their events carry honest non-model
// labels, so a trace containing them is reported as divergent rather than
// silently accepted.
//
// Adaptive clusters retune their timing constants inside a verified
// envelope; no single model covers such a run. CampaignCheck.
// CheckTraceAdaptive checks those traces piecewise: each segment against
// the specification of the envelope level in force, each retune confirmed
// against the envelope's level set, and the by-design non-model events
// above classified as confirmed divergences instead of failures.
package conform

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// Event is one abstract runtime event: a model-alphabet label at a
// virtual time.
type Event struct {
	Time  core.Tick
	Label string
}

// LabelTick is the time-passing label of the model LTS. A Divergence with
// this label means the model forced a visible action at Time that the
// runtime did not produce.
const LabelTick = "tick"

func pname(i int) string { return "p[" + strconv.Itoa(i) + "]" }

// Label constructors for the shared runtime/model alphabet. They are the
// one rendering of each label; the per-event path reads them from
// procLabels instead of formatting.
func labelDeliverToP0(from int) string { return prefDeliverBeatP0 + strconv.Itoa(from) + "]" }

func labelDeliverLeaveToP0(from int) string { return prefDeliverLeaveP0 + strconv.Itoa(from) + "]" }

func labelDeliverToP(i int) string { return "deliver beat to " + pname(i) }

func labelSendBeat(i int) string { return pname(i) + ": send beat" }

func labelSendJoin(i int) string { return pname(i) + ": send join beat" }

func labelSendLeave(i int) string { return pname(i) + ": send leave beat" }

func labelDecideLeave(i int) string { return pname(i) + ": decide leave" }

func labelInactivate(i int) string { return prefInactivate + strconv.Itoa(i) + "]" }

func labelCrash(i int) string { return prefCrash + strconv.Itoa(i) + "]" }

const labelTimeoutP0 = "timeout p[0]"

// Honest non-model labels: runtime mechanisms with no model counterpart
// (see the package comment).
func labelDeliverLeaveAck(i int) string { return "deliver leave ack to " + pname(i) }

func labelSendLeaveAck(to int) string { return "p[0]: send leave ack to " + pname(to) }

func labelRejoin(i int) string { return pname(i) + ": rejoin" }

func labelRestart(i int) string { return pname(i) + ": restart" }

func labelDeliverStray(to, from int) string {
	return "deliver stray beat to " + pname(to) + " from " + pname(from)
}

// procLabelSet holds every single-process label of one process, so that
// abstracting a machine step formats nothing.
type procLabelSet struct {
	deliverToP0, deliverLeaveToP0, deliverToP      string
	sendBeat, sendJoin, sendLeave, decideLeave     string
	inactivate, crash                              string
	deliverLeaveAck, sendLeaveAck, rejoin, restart string
}

func newProcLabelSet(i int) procLabelSet {
	return procLabelSet{
		deliverToP0: labelDeliverToP0(i), deliverLeaveToP0: labelDeliverLeaveToP0(i),
		deliverToP: labelDeliverToP(i),
		sendBeat:   labelSendBeat(i), sendJoin: labelSendJoin(i),
		sendLeave: labelSendLeave(i), decideLeave: labelDecideLeave(i),
		inactivate: labelInactivate(i), crash: labelCrash(i),
		deliverLeaveAck: labelDeliverLeaveAck(i), sendLeaveAck: labelSendLeaveAck(i),
		rejoin: labelRejoin(i), restart: labelRestart(i),
	}
}

// cachedProcs is the number of processes whose labels are tabulated. The
// conformance specifications top out at a handful of processes (their
// state spaces grow exponentially in N); a larger index still works, it
// just formats its labels per step as every index used to.
const cachedProcs = 64

// procLabelTable is built on first use, once per process, and read-only
// afterwards.
var procLabelTable = sync.OnceValue(func() *[cachedProcs]procLabelSet {
	var t [cachedProcs]procLabelSet
	for i := range t {
		t[i] = newProcLabelSet(i)
	}
	return &t
})

// procLabels returns the labels of process i.
func procLabels(i int) *procLabelSet {
	if i >= 0 && i < cachedProcs {
		return &procLabelTable()[i]
	}
	set := newProcLabelSet(i)
	return &set
}

// labelRetune is the adaptive coordinator's level transition. It is not
// part of any single model's alphabet — the piecewise checker
// (CheckTraceAdaptive) consumes it by switching to the specification of
// the target operating point.
const retunePrefix = "p[0]: retune to ("

// appendRetune renders labelRetune(tmin, tmax) into buf.
func appendRetune(buf []byte, tmin, tmax int64) []byte {
	buf = append(buf, retunePrefix...)
	buf = strconv.AppendInt(buf, tmin, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, tmax, 10)
	return append(buf, ')')
}

func labelRetune(tmin, tmax core.Tick) string {
	var buf [64]byte
	return string(appendRetune(buf[:0], int64(tmin), int64(tmax)))
}

// parseRetune extracts the operating point of a retune label. It is
// strict: the label must round-trip through labelRetune exactly. An
// earlier Sscanf implementation accepted trailing junk ("p[0]: retune to
// (2,4)x" parsed as a valid retune), which FuzzStreamChecker caught — a
// malformed label would have been confirmed as an envelope transition
// and reseeded the piecewise checker's frontier.
func parseRetune(label string) (int32, int32, bool) {
	if !strings.HasPrefix(label, retunePrefix) {
		return 0, 0, false
	}
	lo, hi, ok := strings.Cut(strings.TrimSuffix(label[len(retunePrefix):], ")"), ",")
	if !ok {
		return 0, 0, false
	}
	tmin, err := strconv.ParseInt(lo, 10, 32)
	if err != nil {
		return 0, 0, false
	}
	tmax, err := strconv.ParseInt(hi, 10, 32)
	if err != nil {
		return 0, 0, false
	}
	// ParseInt is looser than the rendering ("+2", "02") and the trimming
	// above looser still; re-rendering in a stack buffer settles it.
	var buf [64]byte
	if string(appendRetune(buf[:0], tmin, tmax)) != label {
		return 0, 0, false
	}
	return int32(tmin), int32(tmax), true
}
