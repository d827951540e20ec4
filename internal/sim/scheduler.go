package sim

import "jobsched/internal/job"

// Running describes a job currently executing, as visible to a scheduler:
// its start time and its *estimated* completion. The actual completion is
// deliberately absent — on-line schedulers only know the user estimate.
type Running struct {
	Job   *job.Job
	Start int64
	// EstEnd is Start + Estimate, the projected completion a backfilling
	// scheduler may rely on.
	EstEnd int64
}

// Scheduler is the on-line decision component driven by the engine.
//
// The engine guarantees the call pattern:
//
//	Submit / JobStarted / JobFinished notifications in event order, and
//	after every batch of events at one time instant, repeated Startable
//	calls until no more jobs are started.
//
// Implementations must be deterministic: same event sequence, same
// decisions.
type Scheduler interface {
	// Name identifies the algorithm (used in tables).
	Name() string
	// Submit notifies the scheduler of a newly submitted job. Queues are
	// keyed by job ID: a scheduler refuses a job whose ID is already
	// waiting by leaving QueueLen as it was, which the engine reports as
	// an error.
	Submit(j *job.Job, now int64)
	// JobStarted notifies that a job (previously returned by Startable)
	// began execution.
	JobStarted(j *job.Job, now int64)
	// JobFinished notifies that a running job completed (possibly earlier
	// than its estimate).
	JobFinished(j *job.Job, now int64)
	// Startable returns the jobs to start right now. free is the number
	// of currently unassigned nodes, running the jobs currently executing
	// (estimated completions only). The returned jobs must be waiting and
	// their total node request must not exceed free. running is ordered
	// by job ID and is the engine's own running set, not a copy: it
	// changes as jobs start and finish, so implementations must neither
	// modify it nor retain it past the call (copy it to keep or reorder
	// it).
	Startable(now int64, free int, running []Running) []*job.Job
	// QueueLen returns the number of waiting jobs; every accepted Submit
	// raises it by one.
	QueueLen() int
}
