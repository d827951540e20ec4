package sched

import (
	"fmt"
	"sort"

	"jobsched/internal/job"
	"jobsched/internal/profile"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// AdvanceReservation is a promise of nodes for a fixed future interval,
// made before any job submission — the Section 2 feature "especially
// beneficial for multisite metacomputing [17]" (a remote site
// co-allocates the nodes), and the hard form of Example 4's lab-course
// rule. The scheduler must leave Nodes nodes unused during [Start, End).
type AdvanceReservation struct {
	Name  string
	Nodes int
	Start int64
	End   int64
}

// Calendar is a validated set of advance reservations.
type Calendar struct {
	entries []AdvanceReservation
	machine int
}

// NewCalendar validates and stores the reservations for a machine of the
// given size: positive widths, positive intervals, and no instant where
// the summed reservations exceed the machine.
func NewCalendar(machineNodes int, entries []AdvanceReservation) (*Calendar, error) {
	if machineNodes <= 0 {
		return nil, fmt.Errorf("sched: calendar needs a machine")
	}
	c := &Calendar{machine: machineNodes}
	for _, e := range entries {
		if e.Nodes <= 0 || e.Nodes > machineNodes {
			return nil, fmt.Errorf("sched: reservation %q wants %d of %d nodes",
				e.Name, e.Nodes, machineNodes)
		}
		if e.End <= e.Start || e.Start < 0 {
			return nil, fmt.Errorf("sched: reservation %q has empty interval [%d,%d)",
				e.Name, e.Start, e.End)
		}
		c.entries = append(c.entries, e)
	}
	sort.Slice(c.entries, func(i, j int) bool { return c.entries[i].Start < c.entries[j].Start })
	// Overcommit check via a throwaway profile (the default kernel).
	p := profile.NewTree(machineNodes, 0)
	for _, e := range c.entries {
		if p.MinFree(e.Start, e.End) < e.Nodes {
			return nil, fmt.Errorf("sched: reservations overcommit the machine during %q", e.Name)
		}
		p.Reserve(e.Nodes, e.Start, e.End)
	}
	return c, nil
}

// Entries returns the reservations, ascending by start.
func (c *Calendar) Entries() []AdvanceReservation { return c.entries }

// ReservedStarter enforces a reservation calendar around any start
// policy: a job is admissible only if running it from now (for its full
// estimate) cannot intrude on any reserved interval, given the estimated
// completions of the running jobs. The inner policy chooses among the
// admissible jobs (see Filter, whose Admitter this is).
type ReservedStarter struct {
	Filter
	cal *Calendar
	// scratch is the reusable running+calendar profile (rebuilt per start
	// decision; Reset recycles the step storage), always the default
	// kernel. Owned by one simulation goroutine.
	scratch profile.Kernel
	// stats counts the scratch profile's kernel ops (telemetry; may be nil).
	stats *profile.Stats
	// now is the instant of the current decision (BeginDecision → Admits).
	now int64
}

var _ Admitter = (*ReservedStarter)(nil)

// NewReservedStarter wraps a start policy with the calendar.
func NewReservedStarter(inner Starter, cal *Calendar) *ReservedStarter {
	return &ReservedStarter{Filter: NewFilter(inner), cal: cal}
}

// Name implements Starter.
func (s *ReservedStarter) Name() string {
	return s.inner.Name() + "+reservations"
}

// Instrument implements Instrumented: the hooks reach the inner policy,
// and the wrapper's own scratch profile joins the op counting.
func (s *ReservedStarter) Instrument(h telemetry.Hooks) {
	s.Filter.Instrument(h)
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// PickMany implements Starter. The wrapper hides exactly the jobs whose
// start *now* would intrude on a reserved window (given the estimated
// completions of the running jobs) and leaves everything else to the
// inner policy unchanged — with an empty calendar it is fully
// transparent, so strict-list semantics survive the wrapping.
func (s *ReservedStarter) PickMany(ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	return s.PickAdmitted(s, ix, now, free, running, machineNodes, limit)
}

// BeginDecision implements Admitter: it rebuilds the availability profile
// the admission test reads — running jobs by their estimates plus all
// future reservation windows.
func (s *ReservedStarter) BeginDecision(now int64, free int, running []sim.Running, m int) bool {
	s.now = now
	if len(s.cal.entries) == 0 {
		return true
	}
	s.scratch = ensureScratch(s.scratch, nil, s.stats, m, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	for _, e := range s.cal.entries {
		if e.End <= now {
			continue
		}
		start := e.Start
		if start < now {
			start = now
		}
		if p.MinFree(start, e.End) < e.Nodes {
			// Running jobs already intrude (their estimates overlap a
			// reservation admitted before it was known — cannot happen
			// with construction-time calendars, but stay safe).
			return false
		}
		p.Reserve(e.Nodes, start, e.End)
	}
	return true
}

// Admits implements Admitter: starting j now must not intrude on a
// reserved window. For every calendar entry overlapping [now, now+est),
// the profile (running + calendar) must keep j.Nodes spare capacity
// throughout the overlap.
func (s *ReservedStarter) Admits(j *job.Job) bool {
	now := s.now
	jobEnd := job.AddSat(now, j.Estimate)
	for _, e := range s.cal.entries {
		if e.End <= now || e.Start >= jobEnd {
			continue
		}
		lo := e.Start
		if lo < now {
			lo = now
		}
		hi := e.End
		if hi > jobEnd {
			hi = jobEnd
		}
		if hi <= lo {
			continue
		}
		if s.scratch.MinFree(lo, hi) < j.Nodes {
			return false
		}
	}
	return true
}
