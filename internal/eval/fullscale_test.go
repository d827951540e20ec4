package eval

import (
	"os"
	"testing"

	"jobsched/internal/sim"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// TestFullScale replays the paper-scale CTC workload (79,164 jobs) over
// the full grid for both cases. Skipped in -short mode: it is the
// paper-fidelity run, not a CI test.
func TestFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper-scale run; skipped with -short")
	}
	if os.Getenv("JOBSCHED_FULLSCALE") == "" {
		t.Skip("set JOBSCHED_FULLSCALE=1 to run the paper-scale grid")
	}
	jobs := workload.CTC(workload.DefaultCTCConfig())
	filtered, removed := trace.FilterMaxNodes(jobs, 256)
	t.Logf("CTC workload: %d jobs, %d removed (>256 nodes)", len(filtered), removed)
	for _, c := range []Case{Unweighted, Weighted} {
		g, err := Run("full-scale CTC", sim.Machine{Nodes: 256}, filtered, c,
			Options{Parallel: true, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		g.Render(os.Stderr)
		t.Logf("%s grid wall time: %s", c, g.Duration)
	}
}
