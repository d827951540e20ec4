package sched

import (
	"testing"

	"jobsched/internal/job"
	"jobsched/internal/queue"
	"jobsched/internal/sim"
)

// CheckCompositeAgainstReference runs one row of the equivalence gate
// (TestBatchedPassesMatchSequential) for the external test package: a
// row whose composite is built by a package that imports this one.
func CheckCompositeAgainstReference(t *testing.T, name string, nodes int, mk func() (*Composite, error)) {
	t.Helper()
	checkAgainstReference(t, name, nodes, compositeRow(t, mk))
}

// WorkloadsChanged exposes the gate's non-vacuity probe for a wrapper
// row (see workloadsChanged).
func WorkloadsChanged(t *testing.T, nodes int, a, b func() sim.Scheduler) (changed, total int) {
	t.Helper()
	return workloadsChanged(t, nodes, a, b)
}

// WithReuseOracle wraps c's conservative start policy in the reuse
// differential (see reuseOracle) for a row built by a package that
// imports this one; reused reports how many passes it checked.
func WithReuseOracle(t *testing.T, c *Composite) (_ *Composite, reused func() int) {
	t.Helper()
	c, o := withReuseOracle(t, c)
	return c, func() int { return o.reused }
}

// pickRebuilding runs one pass of s that rebuilds its profile from the
// running jobs and places the whole order, whatever the last pass kept:
// the reference side of the repair differential
// (TestConservativeRepairMatchesRebuild).
func (s *ConservativeStarter) pickRebuilding(ix *queue.Index, now int64, free int, running []sim.Running, m, limit int) []*job.Job {
	s.keep.valid = false
	return s.PickMany(ix, now, free, running, m, limit)
}
