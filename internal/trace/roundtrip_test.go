package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"jobsched/internal/job"
)

// TestSWFRoundTripProperty: Write→Read recovers every scheduling-relevant
// field for arbitrary valid workloads.
func TestSWFRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(80)
		jobs := make([]*job.Job, n)
		var at int64
		for i := range jobs {
			at += int64(r.Intn(1000))
			est := int64(1 + r.Intn(90000))
			jobs[i] = &job.Job{
				ID: job.ID(i), Submit: at,
				Nodes:    1 + r.Intn(430),
				Estimate: est,
				Runtime:  1 + r.Int63n(est),
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, Header{MaxNodes: 430}, jobs); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range jobs {
			w, g := jobs[i], got[i]
			if g.Submit != w.Submit || g.Nodes != w.Nodes ||
				g.Estimate != w.Estimate || g.Runtime != w.Runtime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(3)),
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTransformsComposable: the Section 6.1 pipeline (filter → exact
// estimates) preserves validity and never grows the workload.
func TestTransformsComposable(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	jobs := make([]*job.Job, 200)
	var at int64
	for i := range jobs {
		at += int64(r.Intn(100))
		est := int64(1 + r.Intn(5000))
		jobs[i] = &job.Job{ID: job.ID(i), Submit: at, Nodes: 1 + r.Intn(430),
			Estimate: est, Runtime: 1 + r.Int63n(est)}
	}
	filtered, _ := FilterMaxNodes(jobs, 256)
	exact := WithExactEstimates(filtered)
	if len(exact) > len(jobs) {
		t.Fatalf("pipeline grew the workload: %d → %d jobs", len(jobs), len(exact))
	}
	for _, j := range exact {
		if err := j.Validate(256, true); err != nil {
			t.Fatal(err)
		}
		if j.Estimate != j.Runtime {
			t.Fatal("exactness lost through filtering")
		}
	}
}
