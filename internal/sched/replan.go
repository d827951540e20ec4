package sched

import (
	"fmt"

	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/telemetry"
)

// Planner is the state of a plan order (PSRS, SMART) that the waiting
// jobs and their order do not show: which of them belong to the current
// plan, and how long that plan was. A replanner keeps planned +
// startedFromPlan == planSize through every push, removal and replan, so
// the plan length, the plan jobs and the order are the whole of it. FCFS
// and Garey&Graham keep no plan and implement nothing.
type Planner interface {
	// Recomputations counts the plan epochs so far.
	Recomputations() int
	// PlanSize returns the current plan's length when it was computed.
	// The waiting jobs still in it are the first ones of the order.
	PlanSize() int
	// RestorePlan makes plan, in order, the live part of a plan of size
	// jobs on an empty queue; the arrivals since are Pushed after it, in
	// submission order.
	RestorePlan(size int, plan []*job.Job) error
}

// replanner is the shared on-line adaptation machinery of SMART and PSRS
// (paper Section 5.4): the off-line algorithm only computes an *order* of
// the currently waiting jobs; newly submitted jobs are appended in
// submission order until a recomputation triggers. "In order to reduce
// the number of recomputations ... the schedule is recalculated when the
// ratio between the already scheduled jobs in the wait queue to all the
// jobs in this queue exceeds a certain value" — interpreted as: replan
// once the started fraction of the last plan exceeds RecomputeRatio, or
// once unplanned arrivals exceed 1-RecomputeRatio of the queue.
//
// SMARTOrder and PSRSOrder embed it: everything of Orderer but Name, and
// all of Planner, is defined here once.
type replanner struct {
	ratio float64
	// ix is the one store of the waiting queue: the live tail of the
	// current plan followed by the arrivals since, in submission order.
	// It is rebuilt once per plan epoch, and its Remove says which of the
	// two parts a job left; the replanner itself keeps only counts.
	ix *queue.Index
	// planned and unplanned count the waiting jobs of the two parts.
	planned   int
	unplanned int
	// planSize is the plan length at computation time; startedFromPlan
	// counts removals from the plan since.
	planSize        int
	startedFromPlan int
	// compute produces a fresh plan over all waiting jobs.
	compute func(jobs []*job.Job) []*job.Job
	// recomputations counts plan recomputations (diagnostics/ablation).
	recomputations int
}

func newReplanner(ratio float64, compute func([]*job.Job) []*job.Job) *replanner {
	if ratio <= 0 || ratio > 1 {
		panic("sched: recompute ratio must be in (0,1]")
	}
	return &replanner{ratio: ratio, compute: compute, ix: queue.NewIndex()}
}

// Push implements Orderer.
func (r *replanner) Push(j *job.Job, now int64) {
	if r.ix.Push(j) {
		r.unplanned++
	}
}

// Remove implements Orderer.
func (r *replanner) Remove(j *job.Job, now int64) {
	ok, fromPlan := r.ix.Remove(j)
	if !ok {
		return
	}
	if fromPlan {
		r.planned--
		r.startedFromPlan++
	} else {
		r.unplanned--
	}
}

// Len implements Orderer.
func (r *replanner) Len() int { return r.planned + r.unplanned }

// Walk implements Orderer.
func (r *replanner) Walk() queue.Cursor { return r.ix.Iter() }

// Instrument implements Instrumented: attaches the queue-index counter.
func (r *replanner) Instrument(h telemetry.Hooks) { r.ix.SetStats(h.QueueStats) }

// Recomputations implements Planner.
func (r *replanner) Recomputations() int { return r.recomputations }

// PlanSize implements Planner.
func (r *replanner) PlanSize() int { return r.planSize }

func (r *replanner) stale() bool {
	n := r.Len()
	if n == 0 {
		return false
	}
	if r.planned == 0 {
		return true
	}
	if float64(r.startedFromPlan) > r.ratio*float64(r.planSize) {
		return true
	}
	return float64(r.unplanned) > (1-r.ratio)*float64(n)
}

// ensureFresh replans if stale, starting a new plan epoch: the waiting
// jobs are gathered from the index in their current order (plan tail,
// then arrivals), and the index is rebuilt in the order compute returns.
func (r *replanner) ensureFresh() {
	if !r.stale() {
		return
	}
	n := r.Len()
	plan := r.compute(r.ix.AppendOrdered(make([]*job.Job, 0, n)))
	if len(plan) != n {
		panic("sched: replan changed the job set")
	}
	r.planned, r.unplanned = n, 0
	r.planSize = n
	r.startedFromPlan = 0
	r.recomputations++
	r.ix.Rebuild(plan)
}

// RestorePlan implements Planner.
func (r *replanner) RestorePlan(size int, plan []*job.Job) error {
	if r.Len() != 0 {
		return fmt.Errorf("sched: plan restored over a nonempty queue")
	}
	if size < len(plan) {
		return fmt.Errorf("sched: %d waiting jobs restored into a plan of %d", len(plan), size)
	}
	r.ix.Rebuild(plan)
	r.planned, r.unplanned = len(plan), 0
	r.planSize, r.startedFromPlan = size, size-len(plan)
	return nil
}

// OrderedIter implements Orderer: the current priority order, replanning
// first if stale. The index is owned by the replanner.
func (r *replanner) OrderedIter(now int64) *queue.Index {
	r.ensureFresh()
	return r.ix
}

// BatchWindow implements Orderer: how many consecutive picks of the
// current order are provably replan-free. The sequential protocol
// re-checks staleness before every pick, so a batch of w picks is exact
// iff no removal prefix of length i < w triggers stale(). Removals within
// an epoch never reorder the remaining jobs (plan and unplanned both
// keep relative order), so the only instability is the replan itself —
// bounding the batch to this window makes PickMany over the epoch
// snapshot exactly equal to the pick-one protocol, with the engine's next
// Startable call re-entering OrderedIter at the same queue state the
// sequential run would have re-checked.
//
// The worst case over which picks actually happen is all-from-plan: it
// maximally advances startedFromPlan and planLen decay together, and the
// unplanned trigger's denominator shrinks identically for any removal.
// okAfter is monotone nonincreasing in i, so a binary search against the
// exact float comparisons of stale() finds the window in O(log Q).
func (r *replanner) BatchWindow() int {
	n := r.Len()
	if n == 0 {
		return 0
	}
	okAfter := func(i int) bool {
		if r.planned-i <= 0 {
			return false
		}
		if float64(r.startedFromPlan+i) > r.ratio*float64(r.planSize) {
			return false
		}
		return float64(r.unplanned) <= (1-r.ratio)*float64(n-i)
	}
	// The last stale check a full drain performs is after n-1 removals
	// (the n-th pick needs no order left behind it), and okAfter is only
	// monotone while the plan tail is nonempty — cap the search there.
	lo, hi := 0, n-1
	if p := r.planned - 1; hi > p {
		hi = p
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if okAfter(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// lo = max removals that provably keep the epoch; the first pick is
	// always from the current order, so the window is one more.
	return lo + 1
}
