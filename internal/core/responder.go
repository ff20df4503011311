package core

import "fmt"

// Responder implements p[1] of the binary protocol and p[i] of the static
// protocol (the plain baseline is the binary protocol at tmin = tmax): it
// answers every beat from p[0] immediately and inactivates after bound
// ticks without one.
type Responder struct {
	id ProcID
	// bound is the watchdog, the variant's ResponderBound, computed once at
	// construction.
	bound   Tick
	status  Status
	started bool
	// acts is the scratch slice behind every returned action list (see
	// the Machine contract).
	acts []Action
}

var _ Machine = (*Responder)(nil)

// NewResponder builds a responder with the given process ID (must not be
// the coordinator's).
func NewResponder(cfg Config, id ProcID) (*Responder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id == CoordinatorID {
		return nil, fmt.Errorf("%w: responder cannot be process 0", ErrConfig)
	}
	return &Responder{id: id, bound: cfg.ResponderBound(), status: StatusActive}, nil
}

// Status implements Machine.
func (r *Responder) Status() Status { return r.status }

// Start implements Machine: arm the crash-suspicion watchdog.
func (r *Responder) Start(now Tick) []Action {
	if r.started {
		return nil
	}
	r.started = true
	r.acts = append(r.acts[:0], SetTimer(TimerExpiry, r.bound))
	return r.acts
}

// OnBeat implements Machine: reply right away and push out the watchdog.
func (r *Responder) OnBeat(b Beat, now Tick) []Action {
	if r.status != StatusActive || b.From != CoordinatorID {
		return nil
	}
	r.acts = append(r.acts[:0],
		SendBeat(CoordinatorID, Beat{From: r.id, Stay: true}),
		SetTimer(TimerExpiry, r.bound),
	)
	return r.acts
}

// OnTimer implements Machine: the watchdog fired, so p[0] or the channel is
// presumed down.
func (r *Responder) OnTimer(id TimerID, now Tick) []Action {
	if r.status != StatusActive || id != TimerExpiry {
		return nil
	}
	r.status = StatusInactive
	r.acts = append(r.acts[:0], Inactivate(false))
	return r.acts
}

// Crash implements Machine.
func (r *Responder) Crash(now Tick) []Action {
	if r.status != StatusActive {
		return nil
	}
	r.status = StatusCrashed
	r.acts = append(r.acts[:0], CancelTimer(TimerExpiry), Inactivate(true))
	return r.acts
}

// Participant implements p[i] of the expanding and dynamic protocols: it
// solicits p[0] with a beat every tmin until acknowledged (joined), then
// behaves like a Responder. With Dynamic set it can additionally Leave.
type Participant struct {
	cfg     Config
	id      ProcID
	dynamic bool
	status  Status
	joined  bool
	leaving bool
	started bool
	inc     uint8
	// acts is the scratch slice behind every returned action list (see
	// the Machine contract).
	acts []Action
}

var _ Machine = (*Participant)(nil)

// NewParticipant builds an expanding-protocol joiner; dynamic additionally
// enables the leave half of the dynamic protocol.
func NewParticipant(cfg Config, id ProcID, dynamic bool) (*Participant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id == CoordinatorID {
		return nil, fmt.Errorf("%w: participant cannot be process 0", ErrConfig)
	}
	return &Participant{cfg: cfg, id: id, dynamic: dynamic, status: StatusActive}, nil
}

// Status implements Machine.
func (p *Participant) Status() Status { return p.status }

// beat returns this participant's heartbeat with the given Stay parameter.
func (p *Participant) beat(stay bool) Beat {
	return Beat{From: p.id, Stay: stay, Inc: p.inc}
}

// Start implements Machine: send the first join solicitation immediately
// (the expanding protocol's initial state is urgent — a process cannot
// abstain by idling) and arm both the resend and give-up timers.
func (p *Participant) Start(now Tick) []Action {
	if p.started {
		return nil
	}
	p.started = true
	p.acts = append(p.acts[:0],
		SendBeat(CoordinatorID, p.beat(true)),
		SetTimer(TimerJoinResend, p.cfg.TMin),
		SetTimer(TimerExpiry, p.cfg.JoinerBound()),
	)
	return p.acts
}

// OnBeat implements Machine. The first beat from p[0] acknowledges the
// join. A leaving participant answers any p[0] beat with a false beat, and
// treats a false beat from p[0] as the leave acknowledgement.
func (p *Participant) OnBeat(b Beat, now Tick) []Action {
	if p.status != StatusActive || b.From != CoordinatorID {
		return nil
	}
	if p.leaving {
		if !b.Stay {
			if b.Inc != p.inc {
				return nil // ack for an earlier incarnation's leave
			}
			// Leave acknowledged.
			p.status = StatusLeft
			p.acts = append(p.acts[:0],
				CancelTimer(TimerJoinResend),
				CancelTimer(TimerExpiry),
				Left(),
			)
			return p.acts
		}
		// p[0] has not processed the leave yet; repeat it.
		p.acts = append(p.acts[:0], SendBeat(CoordinatorID, p.beat(false)))
		return p.acts
	}
	if !b.Stay {
		return nil // stray leave-ack; we are not leaving
	}
	actions := append(p.acts[:0],
		SendBeat(CoordinatorID, p.beat(true)),
		SetTimer(TimerExpiry, p.cfg.ResponderBound()),
	)
	if !p.joined {
		p.joined = true
		actions = append(actions,
			CancelTimer(TimerJoinResend),
			Joined(),
		)
	}
	p.acts = actions
	return actions
}

// OnTimer implements Machine.
func (p *Participant) OnTimer(id TimerID, now Tick) []Action {
	if p.status != StatusActive {
		return nil
	}
	switch id {
	case TimerJoinResend:
		if p.joined && !p.leaving {
			return nil
		}
		// Re-solicit (join, or leave retry) every tmin.
		p.acts = append(p.acts[:0],
			SendBeat(CoordinatorID, p.beat(!p.leaving)),
			SetTimer(TimerJoinResend, p.cfg.TMin),
		)
		return p.acts
	case TimerExpiry:
		if p.leaving {
			// A leaving process is never inactivated non-voluntarily;
			// it keeps retrying the leave instead.
			return nil
		}
		p.status = StatusInactive
		p.acts = append(p.acts[:0],
			CancelTimer(TimerJoinResend),
			Inactivate(false),
		)
		return p.acts
	default:
		return nil
	}
}

// Leave starts a graceful departure (dynamic protocol only): the
// participant beats p[0] with a false parameter, retrying every tmin, until
// p[0] acknowledges in kind. From this point the participant can no longer
// be non-voluntarily inactivated.
func (p *Participant) Leave(now Tick) ([]Action, error) {
	if !p.dynamic {
		return nil, fmt.Errorf("%w: leave requires the dynamic protocol", ErrConfig)
	}
	if p.status != StatusActive || p.leaving {
		return nil, nil
	}
	p.leaving = true
	p.acts = append(p.acts[:0],
		SendBeat(CoordinatorID, p.beat(false)),
		SetTimer(TimerJoinResend, p.cfg.TMin),
		CancelTimer(TimerExpiry),
	)
	return p.acts, nil
}

// Rejoin re-enters the protocol after a completed leave (the rejoin
// extension; requires a coordinator built with AllowRejoin). The
// participant bumps its incarnation and solicits afresh; beats from its
// earlier incarnations are ignored by the coordinator.
func (p *Participant) Rejoin(now Tick) ([]Action, error) {
	if !p.dynamic {
		return nil, fmt.Errorf("%w: rejoin requires the dynamic protocol", ErrConfig)
	}
	if p.status != StatusLeft {
		return nil, fmt.Errorf("%w: rejoin requires a completed leave (status %v)", ErrConfig, p.status)
	}
	if p.inc == 0x7F {
		return nil, fmt.Errorf("%w: incarnation space exhausted", ErrConfig)
	}
	p.inc++
	p.status = StatusActive
	p.joined = false
	p.leaving = false
	p.acts = append(p.acts[:0],
		SendBeat(CoordinatorID, p.beat(true)),
		SetTimer(TimerJoinResend, p.cfg.TMin),
		SetTimer(TimerExpiry, p.cfg.JoinerBound()),
	)
	return p.acts, nil
}

// Crash implements Machine.
func (p *Participant) Crash(now Tick) []Action {
	if p.status != StatusActive {
		return nil
	}
	p.status = StatusCrashed
	p.acts = append(p.acts[:0],
		CancelTimer(TimerJoinResend),
		CancelTimer(TimerExpiry),
		Inactivate(true),
	)
	return p.acts
}
