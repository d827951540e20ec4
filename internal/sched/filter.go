package sched

import (
	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
	"jobsched/internal/telemetry"
)

// Admitter is the rule of a start-policy wrapper that restricts which
// waiting jobs may start (an advance-reservation calendar, a course
// window): it says, for one start decision at a time, which jobs the
// inner policy may be offered. Everything else about the decision —
// which admissible job starts, and why — stays with the inner policy.
type Admitter interface {
	// BeginDecision is called before every start decision of a pass with
	// the state that decision sees: running already holds the jobs picked
	// earlier in the pass, free is debited by them. Returning false ends
	// the pass (nothing may start in this state).
	BeginDecision(now int64, free int, running []sim.Running, machineNodes int) bool
	// Admits reports whether j may be offered to the inner policy under
	// the state of the last BeginDecision. A job that merely does not fit
	// the free nodes is NOT to be refused here — that decision belongs to
	// the inner policy (a too-wide list head must keep blocking).
	Admits(j *job.Job) bool
}

// Filter is the one pass loop behind every filtering wrapper. A wrapper
// embeds it, implements Admitter, and forwards its PickMany to
// PickAdmitted; the loop, the decision stash and the hook forwarding are
// here once.
//
// The filter is the index's own: queue.Index.Hide takes a job out of
// every query (Len, First, Rank, Select, MinNodes, the cursors) until
// UnhideAll, so hiding the inadmissible jobs hands the inner policy
// exactly the admissible queue — depths and heads in its decisions
// count admissible jobs only, as if it had been given a filtered list. Two contracts make that safe:
//
//   - a PickMany that hides must UnhideAll before it returns, so hiding
//     never outlives the call that did it (and an inner policy's own
//     UnhideAll may therefore drop the wrapper's hiding too);
//   - a wrapper re-filters per start. Each inner call is limited to one
//     job; the wrapper then extends the running set, debits free, asks
//     its rule again (a start can close a window for the next job) and
//     hides afresh.
//
// The loop runs until the inner policy declines or limit is reached. It
// is required, not an optimization: Composite's pass memo assumes a pass
// is complete, and every inner PickMany resets its decision stash on
// entry — which is why the wrapper keeps its own.
type Filter struct {
	decided
	inner   Starter
	explain sim.DecisionExplainer
	// picked/runBuf are PickAdmitted's reusable pass buffers.
	picked []*job.Job
	runBuf []sim.Running
}

// NewFilter returns the loop state for a wrapper around inner.
func NewFilter(inner Starter) Filter {
	f := Filter{inner: inner}
	f.explain, _ = inner.(sim.DecisionExplainer)
	return f
}

// Inner returns the wrapped start policy.
func (f *Filter) Inner() Starter { return f.inner }

// SetInterrupt implements Interruptible by forwarding to the inner
// policy, whose walk loops do the polling: an interrupted inner pass
// comes back empty, which ends the wrapper's loop too.
func (f *Filter) SetInterrupt(fn func() bool) { forwardInterrupt(f.inner, fn) }

// Instrument implements Instrumented by forwarding to the inner policy.
func (f *Filter) Instrument(h telemetry.Hooks) {
	if in, ok := f.inner.(Instrumented); ok {
		in.Instrument(h)
	}
}

// PickAdmitted is the wrapper's PickMany: the inner policy's pass over
// the jobs rule admits, one start decision at a time.
func (f *Filter) PickAdmitted(rule Admitter, ix *queue.Index, now int64, free int, running []sim.Running, machineNodes, limit int) []*job.Job {
	f.reset()
	f.picked = f.picked[:0]
	run := append(f.runBuf[:0], running...)
	for len(f.picked) < limit && free > 0 && ix.Len() > len(f.picked) {
		if !rule.BeginDecision(now, free, run, machineNodes) {
			break
		}
		for _, j := range f.picked {
			ix.Hide(j)
		}
		it := ix.Iter()
		for j := it.Next(); j != nil; j = it.Next() {
			if !rule.Admits(j) {
				ix.Hide(j)
			}
		}
		var j *job.Job
		if got := f.inner.PickMany(ix, now, free, run, machineNodes, 1); len(got) > 0 {
			j = got[0]
		}
		ix.UnhideAll()
		if j == nil {
			break
		}
		if f.explain != nil {
			if d, ok := f.explain.LastStartDecision(j); ok {
				f.stash(j, d)
			}
		}
		f.picked = append(f.picked, j)
		free -= j.Nodes
		// In ID order, as the engine hands running jobs over: the inner
		// policy sees the set the engine would give it after this start.
		run = joinRunning(run, j, now, byID)
	}
	f.runBuf = run[:0]
	return f.picked
}
