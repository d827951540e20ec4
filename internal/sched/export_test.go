package sched

import (
	"testing"

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
