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
	// small, … starting with the small sequence.
	half := o.machine / 2
	smallBins := make(map[int][]*job.Job)
	wideBins := make(map[int][]*job.Job)
	maxBin := 0
	for _, j := range ratio {
		c := completion[j.ID]
		if j.Nodes > half {
			k := geomSeqBin(c, 1.5) // offset 1.5·2^k
			wideBins[k] = append(wideBins[k], j)
			if k > maxBin {
				maxBin = k
			}
		} else {
			k := geomSeqBin(c, 1.0) // offset 1·2^k
			smallBins[k] = append(smallBins[k], j)
			if k > maxBin {
				maxBin = k
			}
		}
	}
	plan := make([]*job.Job, 0, len(jobs))
	for k := 0; k <= maxBin; k++ {
		plan = append(plan, smallBins[k]...)
		plan = append(plan, wideBins[k]...)
	}
	return plan
}

// geomSeqBin returns the smallest k >= 0 with t <= offset·2^k.
func geomSeqBin(t float64, offset float64) int {
	bound := offset
	k := 0
	for t > bound {
		bound *= 2
		k++
		if k > 128 {
			return 128 // clamp pathological inputs
		}
	}
	return k
}

// preemptiveCompletions builds PSRS's preemptive schedule for the ratio-
// ordered snapshot (all jobs available at virtual time 0, durations = user
// estimates) and returns each job's completion time.
//
// Small jobs (≤ 50% of the nodes) are list-scheduled greedily in ratio
// order. A wide job at the queue head preempts all running jobs once it
// "has been waiting for some time" — interpreted (documented substitution,
// DESIGN.md §2.4) as: the earliest of (a) enough nodes draining naturally
// or (b) its waiting time reaching its own execution time. Preempted jobs
// resume after the wide job with their remaining processing time.
func (o *PSRSOrder) preemptiveCompletions(ratio []*job.Job) map[job.ID]float64 {
	type running struct {
		j         *job.Job
		remaining float64
		since     float64 // segment start
	}
	completion := make(map[job.ID]float64, len(ratio))
	var (
		active  []*running
		free    = o.machine
		t       float64
		queue   = append([]*job.Job(nil), ratio...)
		waiting = -1.0 // head wide job's wait start; <0 = not waiting
	)
	half := o.machine / 2

	finishSegment := func(r *running, now float64) {
		r.remaining -= now - r.since
		r.since = now
	}
	completeDone := func(now float64) {
		kept := active[:0]
		for _, r := range active {
			finishSegment(r, now)
			if r.remaining <= 1e-9 {
				completion[r.j.ID] = now
				free += r.j.Nodes
			} else {
				kept = append(kept, r)
			}
		}
		active = kept
	}

	for len(queue) > 0 || len(active) > 0 {
		// Start jobs per list semantics.
		for len(queue) > 0 {
			head := queue[0]
			if head.Nodes <= half {
				if head.Nodes <= free {
					active = append(active, &running{j: head, remaining: float64(head.Estimate), since: t})
					free -= head.Nodes
					queue = queue[1:]
					waiting = -1
					continue
				}
				break // list semantics: the head waits
			}
			// Wide job at the head.
			if head.Nodes <= free {
				active = append(active, &running{j: head, remaining: float64(head.Estimate), since: t})
				free -= head.Nodes
				queue = queue[1:]
				waiting = -1
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
				preempted := active
				active = []*running{{j: head, remaining: float64(head.Estimate), since: t}}
				free = o.machine - head.Nodes
				queue = queue[1:]
				waiting = -1
				t += float64(head.Estimate)
				completion[head.ID] = t
				// Resume preempted jobs (they fitted together before, so
				// they fit again on the drained machine).
				active = nil
				free = o.machine
				for _, r := range preempted {
					r.since = t
					active = append(active, r)
					free -= r.j.Nodes
				}
				continue
			}
			break
		}
		if len(active) == 0 && len(queue) == 0 {
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
		if waiting >= 0 && len(queue) > 0 {
			deadline := waiting + float64(queue[0].Estimate)
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
	for _, j := range ratio {
		if _, ok := completion[j.ID]; !ok {
			completion[j.ID] = t + float64(j.Estimate)
		}
	}
	return completion
}
