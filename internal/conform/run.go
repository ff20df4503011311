package conform

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/faults"
	"repro/internal/mc"
	"repro/internal/models"
	"repro/internal/netem"
	"repro/internal/par"
	"repro/internal/sim"
)

// ErrUnsupported reports a configuration the conformance layer cannot
// soundly check.
var ErrUnsupported = errors.New("conform: unsupported configuration")

// RunConfig describes one conformance run.
type RunConfig struct {
	// Model is the configuration whose runtime realisation to drive. The
	// ablation knobs FixPriority/FixBounds are unsupported (the runtime
	// only implements both fixes together, via core.Config.Fixed).
	Model models.Config
	// Seed drives the simulator and fault-layer randomness.
	Seed int64
	// Horizon is the virtual time to run (and check time passing) to.
	Horizon core.Tick
	// MaxDelay is the per-direction link delay bound. Keep it 0 for
	// unfixed models: with random delays, FIFO scheduling can force the
	// runtime's timeout ahead of a same-instant reply delivery, which the
	// unfixed model resolves the other way via a channel busy-drop —
	// a spurious divergence, not a protocol bug.
	MaxDelay core.Tick
	// Schedule is an optional fault schedule; see CheckSchedule for the
	// supported event kinds.
	Schedule *faults.Schedule
	// Wrap, if non-nil, wraps every machine (see Mutation); used to prove
	// the checker catches defective detectors.
	Wrap func(id netem.NodeID, m core.Machine) core.Machine
}

// CheckSchedule reports whether a fault schedule stays within the
// model's world: crashes, message loss, partitions and link failures map
// onto model transitions ("crash p[i]", "lose …"), and added latency
// rides the model's nondeterministic message transit (keep delays within
// the round-trip bound, see RunConfig.MaxDelay). Graceful leaves and
// rejoins are admitted too — their runtime handshake differs from the
// model's by design, so their events carry honest non-model labels that a
// plain check reports as divergent and a piecewise one (a CampaignCheck
// with an Envelope) classifies as confirmed. Restarts, duplication,
// reordering and clock drift have no model counterpart at all.
func CheckSchedule(s *faults.Schedule) error {
	if s == nil {
		return nil
	}
	for _, e := range s.Events {
		switch e.Kind {
		case faults.KindCrash, faults.KindLoss, faults.KindPartition,
			faults.KindHeal, faults.KindLinkDown, faults.KindLinkUp,
			faults.KindDelay, faults.KindLeave, faults.KindRejoin:
		default:
			return fmt.Errorf("%w: schedule event %v has no model counterpart", ErrUnsupported, e.Kind)
		}
	}
	return nil
}

// ClusterFor maps a model configuration onto the runtime cluster shape
// that realises it (protocol, variant flags, timing constants, N). Callers
// that build their own clusters — e.g. scenario campaigns with conformance
// checking attached — use it to guarantee the deployment matches the model
// being checked against.
func ClusterFor(m models.Config) (detector.ClusterConfig, error) {
	if err := m.Validate(); err != nil {
		return detector.ClusterConfig{}, err
	}
	if (m.FixPriority || m.FixBounds) && !m.Fixed {
		return detector.ClusterConfig{}, fmt.Errorf("%w: runtime has no ablation knobs, use Fixed", ErrUnsupported)
	}
	if m.N > 1 && (m.Variant == models.Binary || m.Variant == models.RevisedBinary || m.Variant == models.TwoPhase) {
		// models.Build would quietly model one participant.
		return detector.ClusterConfig{}, fmt.Errorf("%w: the %v protocol has exactly one participant, not %d", ErrUnsupported, m.Variant, m.N)
	}
	cc := detector.ClusterConfig{N: m.N, Core: m.Core()}
	switch m.Variant {
	case models.Binary, models.RevisedBinary, models.TwoPhase:
		cc.Protocol = detector.ProtocolBinary
	case models.Static:
		cc.Protocol = detector.ProtocolStatic
	case models.Expanding:
		cc.Protocol = detector.ProtocolExpanding
	case models.Dynamic:
		cc.Protocol = detector.ProtocolDynamic
	default:
		return detector.ClusterConfig{}, fmt.Errorf("%w: unknown variant %v", ErrUnsupported, m.Variant)
	}
	return cc, nil
}

// runObserved drives one simulated cluster with an observer attached —
// the guts of RunStream (StreamChecker) — and
// returns the stopped cluster plus the run's total loss count (the
// no-loss premise of R2/R3).
func runObserved(rc RunConfig, obs detector.Observer) (*detector.Cluster, uint64, error) {
	if err := CheckSchedule(rc.Schedule); err != nil {
		return nil, 0, err
	}
	cc, err := ClusterFor(rc.Model)
	if err != nil {
		return nil, 0, err
	}
	cc.Seed = rc.Seed
	cc.Link = netem.LinkConfig{MaxDelay: sim.Time(rc.MaxDelay)}
	cc.Faults = rc.Schedule
	cc.WrapMachine = rc.Wrap
	cc.Observe = obs

	cl, err := detector.NewCluster(cc)
	if err != nil {
		return nil, 0, err
	}
	if err := cl.Start(); err != nil {
		return nil, 0, err
	}
	cl.Sim.RunUntil(sim.Time(rc.Horizon))
	cl.Stop()
	if errs := cl.FaultErrors(); len(errs) > 0 {
		return nil, 0, fmt.Errorf("conform: fault schedule failed: %w", errs[0])
	}
	return cl, cl.Lost(), nil
}

// CampaignCheck attaches conformance checking to scenario campaigns: the
// model configuration the cluster under test realises, plus exploration
// options for building its LTS. Specs are built once per operating point
// and shared across trials.
type CampaignCheck struct {
	Model models.Config
	// Envelope, if non-nil, marks the campaign as adaptive: the runtime
	// coordinator retunes within this envelope and traces are checked
	// piecewise against the per-level specifications (newAdaptiveEngine).
	// Model.TMin/TMax are then overridden per level via
	// models.Envelope.LevelConfig; the rest of Model (variant, N, Fixed)
	// still shapes every level.
	Envelope *models.Envelope
	Opts     mc.Options

	// specs holds one Spec per envelope level (baseLevel for Model as
	// given), built by whichever trial needs it first.
	specs par.Memo[int, *Spec]
}

// baseLevel keys the non-envelope specification (the Model as given).
const baseLevel = -1

// Spec returns the (lazily built, cached) specification of the base
// model configuration.
func (c *CampaignCheck) Spec() (*Spec, error) { return c.specAt(baseLevel) }

// SpecAt returns the (lazily built, cached) specification of one
// envelope level. It requires Envelope to be set.
func (c *CampaignCheck) SpecAt(level int) (*Spec, error) {
	if c.Envelope == nil {
		return nil, fmt.Errorf("%w: SpecAt without an envelope", ErrUnsupported)
	}
	if level < 0 || level >= c.Envelope.Levels() {
		return nil, fmt.Errorf("%w: envelope has no level %d", ErrUnsupported, level)
	}
	return c.specAt(level)
}

func (c *CampaignCheck) specAt(level int) (*Spec, error) {
	return c.specs.Get(level, c.buildSpec)
}

func (c *CampaignCheck) buildSpec(level int) (*Spec, error) {
	return BuildSpec(c.levelConfig(level), c.Opts)
}

// levelConfig is the model configuration of one envelope level, or of the
// Model as given at baseLevel.
func (c *CampaignCheck) levelConfig(level int) models.Config {
	if level == baseLevel {
		return c.Model
	}
	return c.Envelope.LevelConfig(c.Model, level)
}
