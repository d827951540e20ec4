package sched

import (
	"cmp"
	"slices"

	"jobsched/internal/job"
)

// PSRSOrder adapts the PSRS algorithm (Schwiegelshohn [13]) to the
// on-line setting, exactly as the paper does for SMART: PSRS generates a
// preemptive schedule for the waiting-job snapshot, the preemptive
// schedule is converted into a non-preemptive job *order* via two
// geometric bin sequences, and a greedy list schedule (optionally with
// backfilling) consumes that order. Replanning is lazy (replanner).
//
// Modified Smith ratio of a job: weight / (nodes × execution time),
// largest first. With the weighted objective (weight = nodes × time) the
// ratio is 1 for every job — PSRS ordering then carries no information,
// which matches the paper's observation that job order does not matter
// for weighted response time when no resources idle.
type PSRSOrder struct {
	weight  job.WeightFunc
	machine int
	*replanner
}

// NewPSRSOrder builds the PSRS order policy from the configuration.
func NewPSRSOrder(cfg Config) *PSRSOrder {
	cfg = cfg.withDefaults()
	o := &PSRSOrder{weight: cfg.Weight, machine: cfg.MachineNodes}
	o.replanner = newReplanner(cfg.RecomputeRatio, o.computePlan)
	return o
}

// Name implements Orderer.
func (o *PSRSOrder) Name() string { return string(OrderPSRS) }

// modifiedSmith returns weight / (nodes × estimate).
func (o *PSRSOrder) modifiedSmith(j *job.Job) float64 {
	return o.weight(j) / (float64(j.Nodes) * float64(j.Estimate))
}

// computePlan runs PSRS over a waiting-job snapshot: ratio sort,
// preemptive schedule construction, bin conversion.
func (o *PSRSOrder) computePlan(jobs []*job.Job) []*job.Job {
	if len(jobs) <= 1 {
		return append([]*job.Job(nil), jobs...)
	}
	// Step 1: modified Smith ratio, largest first; ties by ID.
	ratio := append([]*job.Job(nil), jobs...)
	slices.SortStableFunc(ratio, func(a, b *job.Job) int {
		ra, rb := o.modifiedSmith(a), o.modifiedSmith(b)
		if ra != rb {
			if ra > rb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})

	// Step 2: preemptive schedule; gives each job a completion time.
	completion := o.preemptiveCompletions(ratio)

	// Conversion: two geometric sequences of time instants with factor 2
	// and different offsets define bins — one sequence for jobs causing
	// preemption (wide: > 50% of the nodes), one for all other (small)
	// jobs. Jobs map to bins by preemptive completion time; within a bin
	// the Smith order is kept; the final order alternates small, wide,
	// small, … starting with the small sequence. Bin k of the small
	// sequence is bucket 2k, of the wide one 2k+1, and a stable counting
	// sort by bucket lays the plan out.
	half := o.machine / 2
	bucket := make([]int32, len(ratio))
	var start [2*(maxGeomBin+1) + 1]int // start[b+1] counts bucket b, then prefix-summed
	for i, j := range ratio {
		b := 2 * geomSeqBin(completion[i], 1.0) // offset 1·2^k
		if j.Nodes > half {
			b = 2*geomSeqBin(completion[i], 1.5) + 1 // offset 1.5·2^k
		}
		bucket[i] = int32(b)
		start[b+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	plan := make([]*job.Job, len(ratio))
	for i, j := range ratio {
		b := bucket[i]
		plan[start[b]] = j
		start[b]++
	}
	return plan
}

// maxGeomBin is geomSeqBin's clamp.
const maxGeomBin = 128

// geomSeqBin returns the smallest k >= 0 with t <= offset·2^k.
func geomSeqBin(t float64, offset float64) int {
	bound := offset
	k := 0
	for t > bound {
		bound *= 2
		k++
		if k > maxGeomBin {
			return maxGeomBin // clamp pathological inputs
		}
	}
	return k
}

// preemptiveCompletions builds PSRS's preemptive schedule for the ratio-
// ordered snapshot (all jobs available at virtual time 0, durations = user
// estimates) and returns each job's completion time, aligned with ratio.
//
// Small jobs (≤ 50% of the nodes) are list-scheduled greedily in ratio
// order. A wide job at the queue head preempts all running jobs once it
// "has been waiting for some time" — interpreted (documented substitution,
// DESIGN.md §2.4) as: the earliest of (a) enough nodes draining naturally
// or (b) its waiting time reaching its own execution time. Preempted jobs
// resume after the wide job with their remaining processing time.
func (o *PSRSOrder) preemptiveCompletions(ratio []*job.Job) []float64 {
	type running struct {
		i         int // index in ratio
		remaining float64
		since     float64 // segment start
	}
	completion := make([]float64, len(ratio))
	for i := range completion {
		completion[i] = -1 // not yet complete
	}
	runs := make([]running, len(ratio)) // runs[i] is ratio[i]'s, once started
	var (
		active  []*running
		free    = o.machine
		t       float64
		pending = 0    // ratio[pending:] is the waiting queue
		waiting = -1.0 // head wide job's wait start; <0 = not waiting
	)
	half := o.machine / 2
	// begin starts the queue's head at time t.
	begin := func() *running {
		r := &runs[pending]
		*r = running{i: pending, remaining: float64(ratio[pending].Estimate), since: t}
		pending++
		waiting = -1
		return r
	}

	finishSegment := func(r *running, now float64) {
		r.remaining -= now - r.since
		r.since = now
	}
	completeDone := func(now float64) {
		kept := active[:0]
		for _, r := range active {
			finishSegment(r, now)
			if r.remaining <= 1e-9 {
				completion[r.i] = now
				free += ratio[r.i].Nodes
			} else {
				kept = append(kept, r)
			}
		}
		active = kept
	}

	for pending < len(ratio) || len(active) > 0 {
		// Start jobs per list semantics.
		for pending < len(ratio) {
			head := ratio[pending]
			if head.Nodes <= half {
				if head.Nodes <= free {
					active = append(active, begin())
					free -= head.Nodes
					continue
				}
				break // list semantics: the head waits
			}
			// Wide job at the head.
			if head.Nodes <= free {
				active = append(active, begin())
				free -= head.Nodes
				continue
			}
			if waiting < 0 {
				waiting = t
			}
			if t-waiting >= float64(head.Estimate) {
				// Preempt everything; run the wide job exclusively.
				for _, r := range active {
					finishSegment(r, t)
				}
				wide := begin()
				t += float64(head.Estimate)
				completion[wide.i] = t
				// Resume preempted jobs (they fitted together before, so
				// they fit again on the drained machine).
				free = o.machine
				for _, r := range active {
					r.since = t
					free -= ratio[r.i].Nodes
				}
				continue
			}
			break
		}
		if len(active) == 0 && pending == len(ratio) {
			break
		}
		// Advance to the next event: earliest running completion, or the
		// wide head's preemption deadline.
		next := -1.0
		for _, r := range active {
			end := r.since + r.remaining
			if next < 0 || end < next {
				next = end
			}
		}
		if waiting >= 0 && pending < len(ratio) {
			deadline := waiting + float64(ratio[pending].Estimate)
			if next < 0 || deadline < next {
				next = deadline
			}
		}
		if next < 0 {
			// No running jobs and the head cannot start: only possible for
			// a wide head on an empty machine — handled above; guard.
			break
		}
		if next < t {
			next = t
		}
		t = next
		completeDone(t)
	}
	// Any jobs never scheduled (defensive): complete them at the horizon.
	for i, j := range ratio {
		if completion[i] < 0 {
			completion[i] = t + float64(j.Estimate)
		}
	}
	return completion
}
