package sched

// The paper's literal scheduling protocol, kept as the differential
// oracle for the production pass (DESIGN.md §11): the order policy's
// queue as an ordered slice, a start policy that picks ONE job from it,
// and an engine that starts the job and asks again until nothing starts.
// This is the code production ran before the batched pass over
// queue.Index became the only protocol — moved here unchanged except for
// receivers and names — and nothing outside the tests can reach it.
//
// A reference scheduler is derived from a production Composite
// (referenceOf) or Switching (referenceOfSwitching): it shares the order
// policy and the start policy's configuration (hooks, announced drains,
// depth bound, scratch backend), and for a filtering wrapper its
// admission rule, but none of production's decision functions —
// TestReferenceSharesNoDecisionFunction pins that.

import (
	"fmt"
	"slices"
	"sort"

	"jobsched/internal/job"
	"jobsched/internal/objective"
	"jobsched/internal/profile"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// refStarter is the slice protocol's start policy: at most one job per
// call; the engine calls again with updated state until nil is returned.
type refStarter interface {
	Name() string
	// Pick returns the next job to start now, or nil. machineNodes is the
	// total machine size; free the currently unassigned nodes; running the
	// executing jobs with their *estimated* completions.
	Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job
	sim.DecisionExplainer
}

// The four reference policies wrap the production starter they mirror:
// its configuration and buffers are theirs, its PickMany is not used.
type (
	refList         struct{ *ListStarter }
	refGG           struct{ *GareyGrahamStarter }
	refEASY         struct{ *EASYStarter }
	refConservative struct{ *ConservativeStarter }
)

// Pick implements refStarter.
func (s refList) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	if len(ordered) == 0 || ordered[0].Nodes > free {
		return nil
	}
	s.stash(ordered[0], telemetry.Decision{
		Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
	})
	return ordered[0]
}

// Pick implements refStarter.
func (s refGG) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	for i, j := range ordered {
		if j.Nodes <= free {
			d := telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonScanFit,
				Depth: i, Head: telemetry.None,
			}
			if i > 0 {
				d.Head = int64(ordered[0].ID)
			}
			s.stash(j, d)
			return j
		}
	}
	return nil
}

// Pick implements refStarter.
func (s refEASY) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	if len(ordered) == 0 {
		return nil
	}
	if drainsPending(s.announced, now) {
		s.buildDrainProfile(now, running, machineNodes)
		return s.sliceDrainPickOne(ordered, now, free)
	}
	return s.slicePickOne(ordered, now, free, running)
}

// slicePickOne is the fault-free EASY decision against an explicit running
// list (Pick's body).
func (s refEASY) slicePickOne(ordered []*job.Job, now int64, free int, running []sim.Running) *job.Job {
	head := ordered[0]
	if head.Nodes <= free {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if len(ordered) == 1 {
		return nil
	}
	ends := slices.Clone(running)
	sort.Slice(ends, func(a, b int) bool {
		if ends[a].EstEnd != ends[b].EstEnd {
			return ends[a].EstEnd < ends[b].EstEnd
		}
		return ends[a].Job.ID < ends[b].Job.ID
	})
	shadow, spare := shadowTime(head, now, free, ends)
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	for i, j := range ordered[1:] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if j.Nodes > free {
			continue
		}
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// sliceDrainPickOne is EASY's failure-aware decision, used while announced
// maintenance windows are pending: future capacity is modeled by the
// drain-aware scratch profile, the shadow time is the profile's earliest
// fit for the head (which therefore lands *after* any drain the head
// cannot straddle), and a job only starts now if the profile admits its
// whole estimated run from now — so nobody is started straight into a
// known drain.
func (s refEASY) sliceDrainPickOne(ordered []*job.Job, now int64, free int) *job.Job {
	p := s.scratch
	// fit: physically startable now (free nodes respect active outages)
	// and the profile admits the whole estimated run starting now.
	fit := func(j *job.Job) bool {
		return j.Nodes <= free && p.EarliestFit(j.Nodes, j.Estimate, now) == now
	}
	head := ordered[0]
	if fit(head) {
		s.stash(head, telemetry.Decision{
			Starter: s.Name(), Reason: telemetry.ReasonHeadOfQueue, Head: telemetry.None,
		})
		return head
	}
	if len(ordered) == 1 {
		return nil
	}
	shadow := p.EarliestFit(head.Nodes, head.Estimate, now)
	spare := 0
	if shadow < profile.Infinity {
		if sp := p.FreeAt(shadow) - head.Nodes; sp > 0 {
			spare = sp
		}
	}
	if s.rec != nil {
		s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
			Job: telemetry.None, Starter: s.Name(), Head: int64(head.ID),
			Shadow: shadow, Spare: spare})
	}
	for i, j := range ordered[1:] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if !fit(j) {
			continue
		}
		if job.AddSat(now, j.Estimate) <= shadow {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillBeforeShadow,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
		if j.Nodes <= spare {
			s.stash(j, telemetry.Decision{
				Starter: s.Name(), Reason: telemetry.ReasonBackfillSpareNodes,
				Depth: i + 1, Head: int64(head.ID), Shadow: shadow, Spare: spare,
			})
			return j
		}
	}
	return nil
}

// Pick implements refStarter — the full sequential decision: build the
// reservation profile from scratch, walk the queue, start the first job
// whose reservation is due now.
func (s refConservative) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, machineNodes int) *job.Job {
	s.reset()
	if len(ordered) == 0 || free <= 0 {
		return nil
	}
	// Fast path: nothing in the queue fits the free nodes, so no
	// reservation can be "now".
	fits := false
	for i, j := range ordered {
		if stopAt(s.interrupt, i) {
			return nil
		}
		if j.Nodes <= free {
			fits = true
			break
		}
	}
	if !fits {
		return nil
	}
	depth := len(ordered)
	if s.maxDepth > 0 && depth > s.maxDepth {
		depth = s.maxDepth
	}

	s.scratch = ensureScratch(s.scratch, s.factory, s.stats, machineNodes, now)
	p := s.scratch
	for _, r := range running {
		end := r.EstEnd
		if end <= now {
			// A job running past its estimate would have been killed; be
			// defensive against malformed Running data.
			end = now + 1
		}
		p.Reserve(r.Job.Nodes, now, end)
	}
	// Announced drains come after the running reservations: ReserveClamped
	// saturates at zero where a drain overlaps capacity the running set
	// already holds (those jobs will be aborted by the engine; the profile
	// must simply not promise that capacity to anyone else).
	reserveDrains(p, s.announced, now)
	for i, j := range ordered[:depth] {
		if stopAt(s.interrupt, i) {
			return nil
		}
		t := p.EarliestFit(j.Nodes, j.Estimate, now)
		if t == now {
			// The profile assumes the machine's nominal size; an injected
			// hardware outage can shrink the real free count below it, so
			// re-check physical availability before starting.
			if j.Nodes <= free {
				d := telemetry.Decision{
					Starter: s.Name(), Reason: telemetry.ReasonReservationDueNow,
					Depth: i, Head: telemetry.None,
				}
				if i > 0 {
					d.Head = int64(ordered[0].ID)
				}
				s.stash(j, d)
				return j
			}
			// Cannot physically start: reserve at now so later queue jobs
			// still respect this job's priority claim.
		}
		if i == 0 && s.rec != nil && len(ordered) > 1 {
			// The head did not start now: everything deeper in this walk
			// is a backfill attempt against the head's reservation.
			s.rec.Record(telemetry.Event{Type: telemetry.EventBackfill, At: now,
				Job: telemetry.None, Starter: s.Name(), Head: int64(j.ID)})
		}
		if t >= profile.Infinity {
			continue // never placeable: holds no reservation
		}
		end := job.AddSat(t, j.Estimate)
		if end > t {
			p.Reserve(j.Nodes, t, end)
		}
	}
	return nil
}

// refFiltered is a filtering wrapper the slice way: ask the rule, copy
// the admissible jobs into a new list, delegate. The rule is the
// production wrapper's own Admitter; the filtering is not.
type refFiltered struct {
	name  string
	rule  Admitter
	inner refStarter
}

func (s refFiltered) Name() string { return s.name }

func (s refFiltered) Pick(ordered []*job.Job, now int64, free int, running []sim.Running, m int) *job.Job {
	if len(ordered) == 0 || free <= 0 || !s.rule.BeginDecision(now, free, running, m) {
		return nil
	}
	admissible := ordered[:0:0]
	for _, j := range ordered {
		if s.rule.Admits(j) {
			admissible = append(admissible, j)
		}
	}
	if len(admissible) == 0 {
		return nil
	}
	return s.inner.Pick(admissible, now, free, running, m)
}

func (s refFiltered) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return s.inner.LastStartDecision(j)
}

// refStarterOf mirrors a production start policy, wrappers included.
func refStarterOf(st Starter) refStarter {
	switch s := st.(type) {
	case *ListStarter:
		return refList{s}
	case *GareyGrahamStarter:
		return refGG{s}
	case *EASYStarter:
		return refEASY{s}
	case *ConservativeStarter:
		return refConservative{s}
	case interface {
		Starter
		Admitter
		Inner() Starter
	}:
		return refFiltered{name: s.Name(), rule: s, inner: refStarterOf(s.Inner())}
	}
	panic(fmt.Sprintf("sched: no reference for start policy %T", st))
}

// refScheduler is the slice protocol's Composite: one job per Startable
// call, decided over the order policy's queue copied out as a slice.
type refScheduler struct {
	order   Orderer
	start   refStarter
	machine int
	ordered []*job.Job
}

var _ sim.Scheduler = (*refScheduler)(nil)
var _ sim.DecisionExplainer = (*refScheduler)(nil)

// referenceOf derives the reference scheduler of c. The policies are
// shared, so c itself must not be run afterwards.
func referenceOf(c *Composite) *refScheduler {
	return &refScheduler{order: c.order, start: refStarterOf(c.start), machine: c.machine}
}

func (r *refScheduler) Name() string                     { return r.order.Name() + "/" + r.start.Name() }
func (r *refScheduler) Submit(j *job.Job, now int64)     { r.order.Push(j, now) }
func (r *refScheduler) JobStarted(j *job.Job, now int64) { r.order.Remove(j, now) }
func (r *refScheduler) JobFinished(*job.Job, int64)      {}
func (r *refScheduler) QueueLen() int                    { return r.order.Len() }

func (r *refScheduler) Startable(now int64, free int, running []sim.Running) []*job.Job {
	return r.decide(now, free, running)
}

// decide is one Startable call of the slice protocol: copy the order
// out, pick one job.
func (r *refScheduler) decide(now int64, free int, running []sim.Running) []*job.Job {
	if r.order.Len() == 0 || free <= 0 {
		return nil
	}
	r.ordered = r.order.OrderedIter(now).AppendOrdered(r.ordered[:0])
	j := r.start.Pick(r.ordered, now, free, running, r.machine)
	if j == nil {
		return nil
	}
	return []*job.Job{j}
}

func (r *refScheduler) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return r.start.LastStartDecision(j)
}

// refSwitching is Switching over two reference regimes.
type refSwitching struct {
	window     objective.Window
	day, night *refScheduler
	active     *refScheduler
}

// referenceOfSwitching derives the reference of s (which, like a
// Composite handed to referenceOf, must not be run afterwards).
func referenceOfSwitching(s *Switching) *refSwitching {
	day := referenceOf(s.day)
	return &refSwitching{window: s.window, day: day, night: referenceOf(s.night), active: day}
}

func (s *refSwitching) Name() string {
	return fmt.Sprintf("Switching(%s ; %s)", s.day.Name(), s.night.Name())
}

func (s *refSwitching) Submit(j *job.Job, now int64) {
	s.day.Submit(j, now)
	s.night.Submit(j, now)
}

func (s *refSwitching) JobStarted(j *job.Job, now int64) {
	s.day.JobStarted(j, now)
	s.night.JobStarted(j, now)
}

func (s *refSwitching) JobFinished(*job.Job, int64) {}
func (s *refSwitching) QueueLen() int               { return s.day.QueueLen() }

func (s *refSwitching) Startable(now int64, free int, running []sim.Running) []*job.Job {
	s.active = s.night
	if s.window.Contains(now) {
		s.active = s.day
	}
	return s.active.decide(now, free, running)
}

func (s *refSwitching) LastStartDecision(j *job.Job) (telemetry.Decision, bool) {
	return s.active.LastStartDecision(j)
}
