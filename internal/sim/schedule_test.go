package sim

import (
	"testing"

	"jobsched/internal/job"
)

func alloc(id int, nodes int, submit, start, runtime int64) Allocation {
	j := &job.Job{ID: job.ID(id), Nodes: nodes, Submit: submit,
		Runtime: runtime, Estimate: runtime}
	return Allocation{Job: j, Start: start, End: start + runtime}
}

func TestScheduleValidateOK(t *testing.T) {
	s := &Schedule{
		Machine: Machine{Nodes: 4},
		Allocs: []Allocation{
			alloc(0, 2, 0, 0, 100),
			alloc(1, 2, 0, 0, 50),
			alloc(2, 4, 0, 100, 10), // starts exactly when 0 ends
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestScheduleValidateOvercommit(t *testing.T) {
	s := &Schedule{
		Machine: Machine{Nodes: 4},
		Allocs: []Allocation{
			alloc(0, 3, 0, 0, 100),
			alloc(1, 3, 0, 50, 100),
		},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("overcommitted schedule accepted")
	}
}

func TestScheduleValidateEarlyStart(t *testing.T) {
	s := &Schedule{
		Machine: Machine{Nodes: 4},
		Allocs:  []Allocation{alloc(0, 1, 100, 50, 10)}, // starts before submit
	}
	if err := s.Validate(); err == nil {
		t.Fatal("pre-submission start accepted")
	}
}

func TestScheduleValidateWrongDuration(t *testing.T) {
	a := alloc(0, 1, 0, 0, 10)
	a.End = a.Start + 99
	s := &Schedule{Machine: Machine{Nodes: 4}, Allocs: []Allocation{a}}
	if err := s.Validate(); err == nil {
		t.Fatal("wrong-duration allocation accepted")
	}
}

func TestScheduleValidateKillFlag(t *testing.T) {
	j := &job.Job{ID: 0, Nodes: 1, Submit: 0, Runtime: 100, Estimate: 50}
	s := &Schedule{
		Machine: Machine{Nodes: 4},
		// Correct effective duration (50) but inconsistent flag.
		Allocs: []Allocation{{Job: j, Start: 0, End: 50, Killed: false}},
	}
	if err := s.Validate(); err == nil {
		t.Fatal("inconsistent kill flag accepted")
	}
}

func TestMakespanAndUsedArea(t *testing.T) {
	s := &Schedule{
		Machine: Machine{Nodes: 4},
		Allocs: []Allocation{
			alloc(0, 2, 0, 0, 100),
			alloc(1, 1, 0, 50, 200),
		},
	}
	if got := s.Makespan(); got != 250 {
		t.Errorf("Makespan = %d, want 250", got)
	}
	if got := s.Aggregates().UsedArea; got != 2*100+1*200 {
		t.Errorf("UsedArea = %v", got)
	}
}

func TestResponseAndWaitTimes(t *testing.T) {
	a := alloc(0, 1, 10, 25, 5)
	if got := a.WaitTime(); got != 15 {
		t.Errorf("WaitTime = %d", got)
	}
	if got := a.ResponseTime(); got != 20 {
		t.Errorf("ResponseTime = %d", got)
	}
}

func TestByJobID(t *testing.T) {
	s := &Schedule{Machine: Machine{Nodes: 4},
		Allocs: []Allocation{alloc(7, 1, 0, 0, 10)}}
	if s.ByJobID(7) == nil {
		t.Error("existing job not found")
	}
	if s.ByJobID(8) != nil {
		t.Error("missing job found")
	}
}

func TestEmptySchedule(t *testing.T) {
	s := &Schedule{Machine: Machine{Nodes: 4}}
	if s.Makespan() != 0 || s.Aggregates().UsedArea != 0 {
		t.Error("empty schedule has nonzero aggregates")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("empty schedule invalid: %v", err)
	}
}
