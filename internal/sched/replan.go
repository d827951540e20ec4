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
	// plan is the current priority order; its tail after planHead. Jobs
	// almost always leave from the front (the plan head has top priority),
	// so head removal is O(1) with the dead prefix compacted only when it
	// dominates — the same deque discipline as FCFSOrder.
	plan     []*job.Job
	planHead int
	// unplanned holds arrivals since the last computation, submission order.
	unplanned []*job.Job
	// planSize is the plan length at computation time; startedFromPlan
	// counts removals from the plan since.
	planSize        int
	startedFromPlan int
	// compute produces a fresh plan over all waiting jobs.
	compute func(jobs []*job.Job) []*job.Job
	// recomputations counts plan recomputations (diagnostics/ablation).
	recomputations int
	// combined caches plan+unplanned between queue mutations: Ordered is
	// called once per scheduling decision and must not reallocate a
	// queue-sized slice each time under deep backlogs.
	combined []*job.Job
	dirty    bool
	// ix mirrors plan tail + unplanned as an indexed queue, rebuilt once
	// per plan epoch.
	ix *queue.Index
}

func newReplanner(ratio float64, compute func([]*job.Job) []*job.Job) *replanner {
	if ratio <= 0 || ratio > 1 {
		panic("sched: recompute ratio must be in (0,1]")
	}
	return &replanner{ratio: ratio, compute: compute, ix: queue.NewIndex()}
}

func (r *replanner) push(j *job.Job) {
	r.unplanned = append(r.unplanned, j)
	r.dirty = true
	r.ix.Push(j)
}

func (r *replanner) remove(j *job.Job) {
	r.dirty = true
	r.ix.Remove(j)
	if r.planHead < len(r.plan) && r.plan[r.planHead] == j {
		r.plan[r.planHead] = nil // release for GC; the slot is dead
		r.planHead++
		r.startedFromPlan++
		if r.planHead == len(r.plan) {
			r.plan, r.planHead = r.plan[:0], 0
		} else if r.planHead > 64 && r.planHead > len(r.plan)/2 {
			n := copy(r.plan, r.plan[r.planHead:])
			clearTail := r.plan[n:]
			for i := range clearTail {
				clearTail[i] = nil
			}
			r.plan, r.planHead = r.plan[:n], 0
		}
		return
	}
	for i := r.planHead; i < len(r.plan); i++ {
		if r.plan[i] == j {
			copy(r.plan[i:], r.plan[i+1:])
			r.plan[len(r.plan)-1] = nil
			r.plan = r.plan[:len(r.plan)-1]
			r.startedFromPlan++
			return
		}
	}
	for i, q := range r.unplanned {
		if q == j {
			r.unplanned = append(r.unplanned[:i], r.unplanned[i+1:]...)
			return
		}
	}
}

// planLen returns the live plan-tail length.
func (r *replanner) planLen() int { return len(r.plan) - r.planHead }

func (r *replanner) len() int { return r.planLen() + len(r.unplanned) }

func (r *replanner) stale() bool {
	n := r.len()
	if n == 0 {
		return false
	}
	if r.planLen() == 0 {
		return true
	}
	if float64(r.startedFromPlan) > r.ratio*float64(r.planSize) {
		return true
	}
	return float64(len(r.unplanned)) > (1-r.ratio)*float64(n)
}

// ensureFresh replans if stale, starting a new plan epoch: plan order,
// trigger counters and the queue index are all rebuilt.
func (r *replanner) ensureFresh() {
	if !r.stale() {
		return
	}
	all := make([]*job.Job, 0, r.len())
	all = append(all, r.plan[r.planHead:]...)
	all = append(all, r.unplanned...)
	r.plan = r.compute(all)
	if len(r.plan) != len(all) {
		panic("sched: replan changed the job set")
	}
	r.planHead = 0
	r.unplanned = r.unplanned[:0]
	r.planSize = len(r.plan)
	r.startedFromPlan = 0
	r.recomputations++
	r.dirty = true
	r.ix.Rebuild(r.plan)
}

// ordered returns the current priority order, replanning if stale. The
// returned slice is owned by the replanner and valid until the next
// queue mutation; callers must not retain or modify it.
func (r *replanner) ordered() []*job.Job {
	r.ensureFresh()
	if len(r.unplanned) == 0 {
		return r.plan[r.planHead:]
	}
	if r.dirty {
		r.combined = r.combined[:0]
		r.combined = append(r.combined, r.plan[r.planHead:]...)
		r.combined = append(r.combined, r.unplanned...)
		r.dirty = false
	}
	return r.combined
}

// index returns the indexed view of the current priority order,
// replanning if stale — the O(log Q) counterpart of ordered.
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
// re-entering ordered()/index() at the same queue state the sequential
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
		if r.planLen()-i <= 0 {
			return false
		}
		if float64(r.startedFromPlan+i) > r.ratio*float64(r.planSize) {
			return false
		}
		return float64(len(r.unplanned)) <= (1-r.ratio)*float64(n-i)
	}
	// The last stale check a full drain performs is after n-1 removals
	// (the n-th pick needs no order left behind it), and okAfter is only
	// monotone while the plan tail is nonempty — cap the search there.
	lo, hi := 0, n-1
	if p := r.planLen() - 1; hi > p {
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
