package trace

import (
	"math"
	"testing"

	"jobsched/internal/job"
)

func mkJobs() []*job.Job {
	return []*job.Job{
		{ID: 0, Submit: 100, Nodes: 10, Estimate: 1000, Runtime: 500},
		{ID: 1, Submit: 200, Nodes: 300, Estimate: 2000, Runtime: 2000},
		{ID: 2, Submit: 300, Nodes: 256, Estimate: 4000, Runtime: 100},
	}
}

func TestFilterMaxNodes(t *testing.T) {
	out, removed := FilterMaxNodes(mkJobs(), 256)
	if removed != 1 {
		t.Fatalf("removed = %d, want 1", removed)
	}
	if len(out) != 2 {
		t.Fatalf("kept %d jobs", len(out))
	}
	for i, j := range out {
		if j.Nodes > 256 {
			t.Errorf("kept job with %d nodes", j.Nodes)
		}
		if j.ID != job.ID(i) {
			t.Errorf("IDs not renumbered: %d", j.ID)
		}
	}
	// Original slice untouched.
	if mkJobs()[1].Nodes != 300 {
		t.Error("input mutated")
	}
}

func TestWithExactEstimates(t *testing.T) {
	out := WithExactEstimates(mkJobs())
	for _, j := range out {
		if j.Estimate != j.Runtime {
			t.Errorf("job %d: estimate %d ≠ runtime %d", j.ID, j.Estimate, j.Runtime)
		}
	}
	// Deep copy: originals keep their estimates.
	orig := mkJobs()
	if orig[0].Estimate != 1000 {
		t.Error("input mutated")
	}
}

func TestScaleEstimates(t *testing.T) {
	out := ScaleEstimates(mkJobs(), 3)
	for i, j := range out {
		want := int64(float64(mkJobs()[i].Runtime) * 3)
		if j.Estimate != want {
			t.Errorf("job %d estimate = %d, want %d", j.ID, j.Estimate, want)
		}
		if j.Estimate < j.Runtime {
			t.Errorf("estimate below runtime")
		}
	}
}

func TestScaleEstimatesFactorOneIsExact(t *testing.T) {
	out := ScaleEstimates(mkJobs(), 1)
	for _, j := range out {
		if j.Estimate != j.Runtime {
			t.Errorf("factor 1 must equal exact estimates")
		}
	}
}

func TestScaleEstimatesPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ScaleEstimates(mkJobs(), 0.5)
}

func TestSummarize(t *testing.T) {
	s := Summarize(mkJobs())
	if s.Jobs != 3 {
		t.Errorf("Jobs = %d", s.Jobs)
	}
	if s.MaxNodes != 300 {
		t.Errorf("MaxNodes = %d", s.MaxNodes)
	}
	wantArea := 10.0*500 + 300*2000 + 256*100
	if s.TotalArea != wantArea {
		t.Errorf("TotalArea = %v, want %v", s.TotalArea, wantArea)
	}
	// Span: first submit 100, last possible completion 300+4000.
	if s.SpanSeconds != 4200 {
		t.Errorf("Span = %d, want 4200", s.SpanSeconds)
	}
	if math.Abs(s.MeanInterarr-100) > 1e-9 {
		t.Errorf("MeanInterarr = %v, want 100", s.MeanInterarr)
	}
	if s.OverestFactor < 1 {
		t.Errorf("OverestFactor = %v", s.OverestFactor)
	}
	if Summarize(nil).Jobs != 0 {
		t.Error("empty summarize")
	}
}

func TestOfferedLoad(t *testing.T) {
	jobs := []*job.Job{
		{ID: 0, Submit: 0, Nodes: 4, Estimate: 100, Runtime: 100},
	}
	// Span = 100, area = 400; machine 8 → load = 400/(100×8) = 0.5.
	if got := OfferedLoad(jobs, 8); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("OfferedLoad = %v, want 0.5", got)
	}
	if OfferedLoad(nil, 8) != 0 {
		t.Error("empty load")
	}
}
