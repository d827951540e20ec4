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
// Both regimes' order policies observe every queue event so that a
// regime change never loses state; at each scheduling decision the
// active regime's order and start policy decide. The regime is chosen by
// a Window (prime time → day regime).
type Switching struct {
	window     objective.Window
	dayOrder   Orderer
	nightOrder Orderer
	dayStart   Starter
	nightStart Starter
	machine    int
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
	return &Switching{
		window:     window,
		dayOrder:   day.order,
		nightOrder: night.order,
		dayStart:   day.start,
		nightStart: night.start,
		machine:    cfg.MachineNodes,
	}, nil
}

// Name implements sim.Scheduler.
func (s *Switching) Name() string {
	return fmt.Sprintf("Switching(%s/%s ; %s/%s)",
		s.dayOrder.Name(), s.dayStart.Name(), s.nightOrder.Name(), s.nightStart.Name())
}

// Submit implements sim.Scheduler.
func (s *Switching) Submit(j *job.Job, now int64) {
	s.dayOrder.Push(j, now)
	s.nightOrder.Push(j, now)
}

// JobStarted implements sim.Scheduler.
func (s *Switching) JobStarted(j *job.Job, now int64) {
	s.dayOrder.Remove(j, now)
	s.nightOrder.Remove(j, now)
}

// JobFinished implements sim.Scheduler.
func (s *Switching) JobFinished(j *job.Job, now int64) {}

// Startable implements sim.Scheduler: the active regime decides.
func (s *Switching) Startable(now int64, free int, running []sim.Running) []*job.Job {
	if s.QueueLen() == 0 || free <= 0 {
		return nil
	}
	var (
		ord Orderer
		st  Starter
	)
	if s.window.Contains(now) {
		ord, st = s.dayOrder, s.dayStart
	} else {
		ord, st = s.nightOrder, s.nightStart
	}
	j := st.Pick(ord.Ordered(now), now, free, running, s.machine)
	if j == nil {
		return nil
	}
	return []*job.Job{j}
}

// QueueLen implements sim.Scheduler. Both regimes' orders hold the same
// jobs, so either one answers.
func (s *Switching) QueueLen() int { return s.dayOrder.Len() }

// SetInterrupt implements Interruptible: whichever regime is active, its
// start policy's walk loops poll the hook.
func (s *Switching) SetInterrupt(f func() bool) {
	forwardInterrupt(s.dayStart, f)
	forwardInterrupt(s.nightStart, f)
}

// LastStartDecision implements sim.DecisionExplainer: the regime whose
// start policy picked the job answers (starters match on the exact job
// pointer of their most recent pick, so only one regime responds).
func (s *Switching) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if d, ok := s.dayStart.(sim.DecisionExplainer); ok {
		if dec, found := d.LastStartDecision(j); found {
			return dec, true
		}
	}
	if d, ok := s.nightStart.(sim.DecisionExplainer); ok {
		if dec, found := d.LastStartDecision(j); found {
			return dec, true
		}
	}
	return telemetry.Decision{}, false
}
