package sched

import (
	"fmt"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Switching combines two scheduling algorithms by time of day — the
// final step of the paper's evaluation example, which the administrator
// leaves open ("in addition she must evaluate the effect of combining
// the selected algorithms"): one algorithm serves the prime-time
// response-time objective (Example 5 rule 5), the other the off-hours
// load objective (rule 6).
//
// Each regime is a complete Composite. Both observe every queue event so
// that a regime change never loses state; at each scheduling decision the
// active regime's Startable decides. The regime is chosen by a Window
// (prime time → day regime).
type Switching struct {
	window     objective.Window
	day, night *Composite
	// active is the regime that answered the last Startable call — the one
	// whose start policy classified the jobs the engine is about to start.
	active *Composite
}

var _ sim.Scheduler = (*Switching)(nil)
var _ Interruptible = (*Switching)(nil)

// NewSwitching composes the day and night algorithms. The paper's
// administrator would pass her picks: day = SMART or PSRS with
// backfilling (best unweighted), night = Garey&Graham (best weighted).
func NewSwitching(window objective.Window, dayOrder OrderName, dayStart StartName,
	nightOrder OrderName, nightStart StartName, cfg Config) (*Switching, error) {
	cfg = cfg.withDefaults()
	if cfg.MachineNodes <= 0 {
		return nil, fmt.Errorf("sched: switching needs MachineNodes > 0")
	}
	day, err := New(dayOrder, dayStart, cfg)
	if err != nil {
		return nil, err
	}
	// The night objective is the weighted one; its SMART/PSRS weights
	// should be area weights regardless of the day configuration.
	nightCfg := cfg
	nightCfg.Weight = job.AreaWeight
	night, err := New(nightOrder, nightStart, nightCfg)
	if err != nil {
		return nil, err
	}
	return &Switching{window: window, day: day, night: night, active: day}, nil
}

// Name implements sim.Scheduler.
func (s *Switching) Name() string {
	return fmt.Sprintf("Switching(%s ; %s)", s.day.Name(), s.night.Name())
}

// Submit implements sim.Scheduler.
func (s *Switching) Submit(j *job.Job, now int64) {
	s.day.Submit(j, now)
	s.night.Submit(j, now)
}

// JobStarted implements sim.Scheduler.
func (s *Switching) JobStarted(j *job.Job, now int64) {
	s.day.JobStarted(j, now)
	s.night.JobStarted(j, now)
}

// JobFinished implements sim.Scheduler.
func (s *Switching) JobFinished(j *job.Job, now int64) {}

// Startable implements sim.Scheduler: the active regime decides.
func (s *Switching) Startable(now int64, free int, running []sim.Running) []*job.Job {
	s.active = s.night
	if s.window.Contains(now) {
		s.active = s.day
	}
	return s.active.Startable(now, free, running)
}

// QueueLen implements sim.Scheduler. Both regimes' orders hold the same
// jobs, so either one answers.
func (s *Switching) QueueLen() int { return s.day.QueueLen() }

// SetInterrupt implements Interruptible: whichever regime is active, its
// pass polls the hook.
func (s *Switching) SetInterrupt(f func() bool) {
	s.day.SetInterrupt(f)
	s.night.SetInterrupt(f)
}

// LastStartDecision implements sim.DecisionExplainer: the regime that
// computed the last pass answers.
func (s *Switching) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return s.active.LastStartDecision(j)
}
