// Package sim implements the event-driven simulation of a space-shared
// parallel machine. It drives a Scheduler with the on-line stream of job
// submissions (Section 2 of the paper: "the scheduling system receives a
// stream of job submission data and produces a valid schedule"), records
// the resulting schedule, verifies its validity against the machine
// constraints of Example 5 (exclusive variable partitions, no time
// sharing, kill at the runtime limit), and measures the computation time
// consumed by the scheduler itself (Tables 7 and 8).
package sim

import (
	"fmt"
	"sort"

	"jobsched/internal/job"
)

// Machine is the target system: identical nodes, variable partitioning,
// exclusive access, no time sharing (Example 5).
type Machine struct {
	// Nodes is the size of the batch partition (256 in the paper).
	Nodes int
}

// Allocation records one job's placement in the final schedule.
type Allocation struct {
	Job   *job.Job
	Start int64
	// End is the completion time: Start + the job's effective runtime
	// (kill-at-limit semantics), or the abort time for attempts cut
	// short by a hardware failure.
	End int64
	// Killed reports whether the job was cancelled at its limit.
	Killed bool
	// Aborted reports an attempt cut short by a node failure (the job
	// was resubmitted and appears again later in the schedule).
	Aborted bool
}

// ResponseTime is End - Submit, the quantity averaged by the paper's
// daytime objective function.
func (a Allocation) ResponseTime() int64 { return a.End - a.Job.Submit }

// WaitTime is Start - Submit.
func (a Allocation) WaitTime() int64 { return a.Start - a.Job.Submit }

// Schedule is the final allocation of the machine to jobs. It is only
// complete after the simulation has executed all jobs ("the final
// schedule is only available after the execution of all jobs").
type Schedule struct {
	Machine Machine
	Allocs  []Allocation
}

// Makespan returns the completion time of the last job (0 when empty).
func (s *Schedule) Makespan() int64 {
	var m int64
	for _, a := range s.Allocs {
		if a.End > m {
			m = a.End
		}
	}
	return m
}

// Validate checks the schedule against the machine model:
//   - no job starts before its submission,
//   - every allocation lasts exactly the job's effective runtime,
//   - at no point in time are more than Machine.Nodes nodes in use
//     (exclusive partitions, no time sharing).
//
// A nil error means the schedule is valid in the paper's sense.
func (s *Schedule) Validate() error {
	type event struct {
		at    int64
		delta int
	}
	events := make([]event, 0, 2*len(s.Allocs))
	for i := range s.Allocs {
		a := &s.Allocs[i]
		if a.Start < a.Job.Submit {
			return fmt.Errorf("sim: %v started at %d before submission", a.Job, a.Start)
		}
		want := a.Job.EffectiveRuntime()
		if a.Aborted {
			// A failure-aborted attempt lasts anywhere in [0, runtime).
			if a.End < a.Start || a.End-a.Start >= want {
				return fmt.Errorf("sim: aborted %v ran %d s, want < %d", a.Job, a.End-a.Start, want)
			}
		} else {
			if a.End-a.Start != want {
				return fmt.Errorf("sim: %v ran %d s, want %d", a.Job, a.End-a.Start, want)
			}
			if a.Killed != a.Job.Killed() {
				return fmt.Errorf("sim: %v kill flag %v inconsistent", a.Job, a.Killed)
			}
		}
		if a.End > a.Start {
			events = append(events,
				event{at: a.Start, delta: a.Job.Nodes},
				event{at: a.End, delta: -a.Job.Nodes})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Process releases before acquisitions at equal times: a node freed
		// at t may be reused from t on.
		return events[i].delta < events[j].delta
	})
	used := 0
	for _, e := range events {
		used += e.delta
		if used > s.Machine.Nodes {
			return fmt.Errorf("sim: %d nodes in use at t=%d on a %d-node machine",
				used, e.at, s.Machine.Nodes)
		}
		if used < 0 {
			return fmt.Errorf("sim: negative usage at t=%d", e.at)
		}
	}
	return nil
}

// Aggregates folds the allocations, in order, into the schedule-level
// metrics: the one definition the objective package evaluates.
func (s *Schedule) Aggregates() Aggregates {
	var g Aggregates
	for _, a := range s.Allocs {
		g.fold(a)
	}
	return g
}

// ByJobID returns the allocation for a given job ID, or nil.
func (s *Schedule) ByJobID(id job.ID) *Allocation {
	for i := range s.Allocs {
		if s.Allocs[i].Job.ID == id {
			return &s.Allocs[i]
		}
	}
	return nil
}
