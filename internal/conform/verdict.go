package conform

import (
	"math"

	"repro/internal/core"
	"repro/internal/models"
)

// ReqViolation is one requirement violation observed on a trace.
type ReqViolation struct {
	Prop models.Property
	// Proc is the blamed participant (R1: the silent one p[0] failed to
	// detect; R2: the one inactivated); 0 for R3.
	Proc int
	// Time is the tick at which the violation became observable.
	Time core.Tick
}

// TraceVerdicts is the outcome of evaluating R1–R3 on one trace.
type TraceVerdicts struct {
	// LossFree reports the no-loss premise of R2/R3 held (no message was
	// dropped by links, faults, partitions, or crashed senders).
	LossFree bool
	// Violations lists every observed violation, in trace order per
	// property. R2/R3 violations are only reported on loss-free runs
	// (their premise); R1 applies regardless of loss.
	Violations []ReqViolation
}

// ByProp filters the violations of one property.
func (tv TraceVerdicts) ByProp(p models.Property) []ReqViolation {
	var out []ReqViolation
	for _, v := range tv.Violations {
		if v.Prop == p {
			out = append(out, v)
		}
	}
	return out
}

const farFuture = core.Tick(math.MaxInt64 / 2)

// VerifyFunc model-checks one property of one configuration; usually
// models.Verify with fixed options, possibly behind a cache.
type VerifyFunc func(models.Config, models.Property) (models.Verdict, error)
