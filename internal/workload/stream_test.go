package workload

import (
	"testing"

	"jobsched/internal/job"
)

// TestStreamerMatchesRandomized: the streaming generator must yield
// exactly the jobs the slice generator produces, in order.
func TestStreamerMatchesRandomized(t *testing.T) {
	cfg := DefaultRandomizedConfig()
	cfg.Jobs = 2000
	cfg.Seed = 42
	want := Randomized(cfg)
	s, err := NewStreamer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []*job.Job
	for {
		j, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		got = append(got, j)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d jobs, slice generator %d", len(got), len(want))
	}
	if s.i != cfg.Jobs {
		t.Errorf("generated %d jobs, want %d", s.i, cfg.Jobs)
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("job %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Exhausted stream keeps returning (nil, nil).
	if j, err := s.Next(); j != nil || err != nil {
		t.Errorf("post-end Next: %v, %v", j, err)
	}
}

func TestStreamerSubmitNonDecreasing(t *testing.T) {
	s, err := NewStreamer(CalibratedStreamConfig(500, 128, 0.7, 9))
	if err != nil {
		t.Fatal(err)
	}
	last := int64(-1)
	for {
		j, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			break
		}
		if j.Submit < last {
			t.Fatalf("submit went backwards: %d after %d", j.Submit, last)
		}
		last = j.Submit
	}
}

func TestStreamerRejectsBadConfig(t *testing.T) {
	cfg := DefaultRandomizedConfig()
	cfg.Jobs = 0
	if _, err := NewStreamer(cfg); err == nil {
		t.Fatal("zero-job config accepted")
	}
}

// TestCalibratedLoad: the calibrated config's offered load (total job
// area over machine capacity across the submission span) must land near
// the target.
func TestCalibratedLoad(t *testing.T) {
	const nodes = 256
	for _, load := range []float64{0.5, 0.8} {
		cfg := CalibratedStreamConfig(20000, nodes, load, 3)
		jobs := Randomized(cfg)
		var area float64
		for _, j := range jobs {
			area += float64(j.Nodes) * float64(j.Runtime)
		}
		_, last := job.Span(jobs)
		got := area / (float64(last) * nodes)
		if got < load*0.85 || got > load*1.15 {
			t.Errorf("target load %.2f: offered %.3f", load, got)
		}
	}
}
