// Package conform checks the detector runtime against the timed-automata
// models: a differential, trace-based conformance layer in the spirit of
// runtime verification of distributed protocols.
//
// The pieces:
//
//   - A StreamChecker (a detector.Observer) abstracts every machine step of
//     a running cluster into the event alphabet internal/models labels its
//     LTS with (internal/alphabet: send beat, deliver beat, timeout,
//     inactivate, …), as typed values with virtual timestamps, and checks
//     each event as it happens. It is the one checker: a live run attaches
//     it as the cluster's observer (RunStream, campaign trials, walks,
//     shrinking), and a recorded trace (Recorder, Run) is checked by
//     calling Feed per event, then Finish.
//   - A Spec is the variant's model LTS (built monitor-free via
//     mc.BuildLTS) with unobservable labels hidden and the join-delivery
//     labels merged into the plain delivery labels (the wire does not
//     distinguish them). The checker advances a frontier of model states
//     by antichain simulation through tau-closure, "tick" steps for time
//     passing, and the visible labels of the trace. An empty frontier is a
//     divergence — the runtime did something (or let time pass) that no
//     model execution matches — and is reported as an Incident with the
//     preceding events as an ASCII message sequence chart.
//   - Alongside inclusion, the checker evaluates the paper's requirements
//     R1–R3 on the trace, so chaos campaigns double as spec-conformance
//     runs, and cross-checks each violation against the model checker
//     (StreamConfig.Verify).
//   - Explore drives seeded random walks (randomised timing constants,
//     node counts, fault schedules) through all of the above and shrinks
//     failing runs to minimal schedules (ShrinkRun).
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
// envelope; no single model covers such a run. A CampaignCheck with an
// Envelope has the checker work piecewise: each segment against the
// specification of the envelope level in force, each retune confirmed
// against the envelope's level set, and the by-design non-model events
// above classified as confirmed divergences instead of failures.
package conform

import (
	"repro/internal/alphabet"
	"repro/internal/core"
)

// Event is one abstract runtime event: a label of the shared alphabet at a
// virtual time.
type Event struct {
	Time  core.Tick
	Label alphabet.Label
}

// tick is the time-passing label of the model LTS.
var tick = alphabet.Label{Kind: alphabet.Tick}

// LabelTick is tick as reports spell it. A divergence Incident with this
// label means the model forced a visible action at Time that the runtime
// did not produce.
var LabelTick = tick.String()
