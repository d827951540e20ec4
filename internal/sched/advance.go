package sched

import (
	"fmt"
	"sort"

	"jobsched/internal/job"
	"jobsched/internal/profile"
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
	// Overcommit check via a throwaway profile.
	p := profile.New(machineNodes, 0)
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
// admissible jobs.
type ReservedStarter struct {
	inner Starter
	cal   *Calendar
	// scratch is the reusable running+calendar profile (rebuilt per Pick;
	// Reset recycles the step storage). Owned by one simulation goroutine.
	// factory selects its backend (default: the O(log S) tree kernel).
	scratch profile.Kernel
	factory ProfileFactory
	// stats counts the scratch profile's kernel ops (telemetry; may be nil).
	stats *profile.Stats
}

// NewReservedStarter wraps a start policy with the calendar.
func NewReservedStarter(inner Starter, cal *Calendar) *ReservedStarter {
	return &ReservedStarter{inner: inner, cal: cal}
}

// Name implements Starter.
func (s *ReservedStarter) Name() string {
	return s.inner.Name() + "+reservations"
}

// Instrument implements Instrumented: the hooks reach the inner policy,
// and the wrapper's own scratch profile joins the op counting.
func (s *ReservedStarter) Instrument(h telemetry.Hooks) {
	if in, ok := s.inner.(Instrumented); ok {
		in.Instrument(h)
	}
	s.stats = h.ProfileStats
	if s.scratch != nil {
		s.scratch.SetStats(s.stats)
	}
}

// SetProfileFactory implements ProfileBacked for the wrapper's own
// scratch profile and forwards the swap to the inner policy.
func (s *ReservedStarter) SetProfileFactory(f ProfileFactory) {
	s.factory, s.scratch = f, nil
	if pb, ok := s.inner.(ProfileBacked); ok {
		pb.SetProfileFactory(f)
	}
}

// SetInterrupt implements Interruptible by forwarding to the inner
// policy, whose walk loops do the polling.
func (s *ReservedStarter) SetInterrupt(f func() bool) { forwardInterrupt(s.inner, f) }

// LastStartDecision implements sim.DecisionExplainer by delegating to the
// inner policy (the wrapper only pre-filters the queue; the inner policy
// makes — and classifies — the start decision).
func (s *ReservedStarter) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	if d, ok := s.inner.(sim.DecisionExplainer); ok {
		return d.LastStartDecision(j)
	}
	return telemetry.Decision{}, false
}

// Pick implements Starter. The wrapper prunes exactly the jobs whose
// start *now* would intrude on a reserved window (given the estimated
// completions of the running jobs) and delegates everything else to the
// inner policy unchanged — with an empty calendar it is fully
// transparent, so strict-list semantics survive the wrapping.
func (s *ReservedStarter) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, m int) *job.Job {
	if len(ordered) == 0 || free <= 0 {
		return nil
	}
	if len(s.cal.entries) == 0 {
		return s.inner.Pick(ordered, now, free, running, m)
	}
	// Availability profile: running jobs by their estimates plus all
	// future reservation windows.
	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, m, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	feasible := true
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
			feasible = false
			break
		}
		p.Reserve(e.Nodes, start, e.End)
	}
	if !feasible {
		return nil
	}
	admissible := ordered[:0:0]
	for _, j := range ordered {
		if s.violatesCalendar(p, j, now) {
			continue
		}
		admissible = append(admissible, j)
	}
	if len(admissible) == 0 {
		return nil
	}
	return s.inner.Pick(admissible, now, free, running, m)
}

// violatesCalendar reports whether starting j now would intrude on a
// reserved window: for every calendar entry overlapping [now, now+est),
// the profile (running + calendar) must keep j.Nodes spare capacity
// throughout the overlap. Jobs that merely do not fit the free nodes are
// NOT filtered — that decision belongs to the inner policy.
func (s *ReservedStarter) violatesCalendar(p profile.Kernel, j *job.Job, now int64) bool {
	jobEnd := now + j.Estimate
	if jobEnd < now { // overflow
		jobEnd = profile.Infinity
	}
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
		if p.MinFree(lo, hi) < j.Nodes {
			return true
		}
	}
	return false
}
