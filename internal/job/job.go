// Package job defines the rigid parallel job model used throughout the
// simulator and the scheduling algorithms.
//
// A job carries the submission data of the paper's Example 5: the exact
// number of nodes it needs (rigid job model), a user-provided upper limit
// for its execution time (the estimate), and its submission time. The
// actual runtime is known to the simulator but never to a scheduler.
package job

import (
	"errors"
	"fmt"
)

// ID identifies a job within a workload. IDs are assigned densely from 0 in
// submission order by the workload generators and the trace reader.
type ID int64

// Job is a rigid parallel job. All time fields are in seconds from the
// start of the workload's time frame.
type Job struct {
	// ID is the job's position in the workload (dense, submission order).
	ID ID
	// Name is an optional human-readable label (trace job name).
	Name string
	// User is an optional owner label used by policy examples.
	User string
	// Nodes is the exact number of nodes the job requires (rigid model).
	Nodes int
	// Submit is the submission time.
	Submit int64
	// Estimate is the user-provided upper limit for the execution time.
	// A job running past its estimate is cancelled by the machine.
	Estimate int64
	// Runtime is the actual execution time. Schedulers must not read it;
	// only the simulator and the objective functions may.
	Runtime int64
	// Class is an optional priority class used by policy examples
	// (e.g. drug-design jobs vs. lab-course jobs in Example 1).
	Class string
}

// Validation errors returned by Validate.
var (
	ErrNoNodes         = errors.New("job: node request must be positive")
	ErrBadEstimate     = errors.New("job: estimate must be positive")
	ErrBadRuntime      = errors.New("job: runtime must be positive")
	ErrNegativeSubmit  = errors.New("job: submission time must not be negative")
	ErrRuntimeOverrun  = errors.New("job: runtime exceeds estimate")
	ErrNodesExceedZero = errors.New("job: node request exceeds machine size")
)

// Validate reports whether the job's submission data is well formed.
// maxNodes is the machine size; pass 0 to skip the width check.
// strict additionally requires Runtime <= Estimate (generators guarantee
// it; traces replayed with kill-at-limit semantics may violate it).
func (j *Job) Validate(maxNodes int, strict bool) error {
	switch {
	case j.Nodes <= 0:
		return fmt.Errorf("job %d: %w", j.ID, ErrNoNodes)
	case j.Estimate <= 0:
		return fmt.Errorf("job %d: %w", j.ID, ErrBadEstimate)
	case j.Runtime <= 0:
		return fmt.Errorf("job %d: %w", j.ID, ErrBadRuntime)
	case j.Submit < 0:
		return fmt.Errorf("job %d: %w", j.ID, ErrNegativeSubmit)
	}
	if maxNodes > 0 && j.Nodes > maxNodes {
		return fmt.Errorf("job %d: %d nodes: %w", j.ID, j.Nodes, ErrNodesExceedZero)
	}
	if strict && j.Runtime > j.Estimate {
		return fmt.Errorf("job %d: runtime %d > estimate %d: %w",
			j.ID, j.Runtime, j.Estimate, ErrRuntimeOverrun)
	}
	return nil
}

// Area is the actual resource consumption of the job: nodes × runtime.
// The paper uses it as the job weight of the weighted response-time
// objective ("the product of the execution time and the number of
// required nodes").
func (j *Job) Area() float64 { return float64(j.Nodes) * float64(j.Runtime) }

// EstimatedArea is the projected resource consumption: nodes × estimate.
// It is the only weight a scheduler may use on-line.
func (j *Job) EstimatedArea() float64 { return float64(j.Nodes) * float64(j.Estimate) }

// EffectiveRuntime is the time the job actually occupies the machine under
// kill-at-limit semantics: min(Runtime, Estimate).
func (j *Job) EffectiveRuntime() int64 {
	if j.Runtime > j.Estimate {
		return j.Estimate
	}
	return j.Runtime
}

// Killed reports whether kill-at-limit semantics would cancel the job.
func (j *Job) Killed() bool { return j.Runtime > j.Estimate }

// String implements fmt.Stringer.
func (j *Job) String() string {
	return fmt.Sprintf("job %d (%d nodes, submit %d, est %d, run %d)",
		j.ID, j.Nodes, j.Submit, j.Estimate, j.Runtime)
}

// Clone returns a deep copy of the job.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

// CloneAll deep-copies a slice of jobs.
func CloneAll(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}

// WeightFunc assigns a scheduling weight to a job. Order policies that use
// weights (SMART, PSRS) are parameterized by one of these so the same code
// serves the unweighted and the weighted objective.
type WeightFunc func(*Job) float64

// UnitWeight gives every job weight 1 (average response time objective).
func UnitWeight(*Job) float64 { return 1 }

// AreaWeight gives a job its estimated resource consumption as weight
// (average weighted response time objective; on-line, only the estimate
// is known, so the estimated area is used).
func AreaWeight(j *Job) float64 { return j.EstimatedArea() }
