package sched

import (
	"jobsched/internal/job"
	"jobsched/internal/queue"
)

// replanner is the shared on-line adaptation machinery of SMART and PSRS
// (paper Section 5.4): the off-line algorithm only computes an *order* of
// the currently waiting jobs; newly submitted jobs are appended in
// submission order until a recomputation triggers. "In order to reduce
// the number of recomputations ... the schedule is recalculated when the
// ratio between the already scheduled jobs in the wait queue to all the
// jobs in this queue exceeds a certain value" — interpreted as: replan
// once the started fraction of the last plan exceeds RecomputeRatio, or
// once unplanned arrivals exceed 1-RecomputeRatio of the queue.
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

func (r *replanner) push(j *job.Job) {
	if r.ix.Push(j) {
		r.unplanned++
	}
}

func (r *replanner) remove(j *job.Job) {
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

func (r *replanner) len() int { return r.planned + r.unplanned }

func (r *replanner) stale() bool {
	n := r.len()
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
	n := r.len()
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

// index returns the current priority order, replanning first if stale.
// The index is owned by the replanner.
func (r *replanner) index() *queue.Index {
	r.ensureFresh()
	return r.ix
}

// batchWindow returns how many consecutive picks of the current order are
// provably replan-free: the sequential protocol re-checks staleness
// before every pick, so a batch of w picks is exact iff no removal prefix
// of length i < w triggers stale(). Removals within an epoch never
// reorder the remaining jobs (plan and unplanned both keep relative
// order), so the only instability is the replan itself — bounding the
// batch to this window makes PickMany over the epoch snapshot exactly
// equal to the pick-one protocol, with the engine's next Startable call
// re-entering index() at the same queue state the sequential
// run would have re-checked.
//
// The worst case over which picks actually happen is all-from-plan: it
// maximally advances startedFromPlan and planLen decay together, and the
// unplanned trigger's denominator shrinks identically for any removal.
// okAfter is monotone nonincreasing in i, so a binary search against the
// exact float comparisons of stale() finds the window in O(log Q).
func (r *replanner) batchWindow() int {
	n := r.len()
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
